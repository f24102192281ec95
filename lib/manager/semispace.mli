(** A semispace copying collector as a c-partial manager — the paper's
    remark that its bound covers copying collection, made concrete.
    Worst-case footprint [2·(c+1)·M]: twice the bump-and-compact
    arena, the classic price of copying.

    [space_words] overrides the per-space size (must be [>= M]);
    defaults to [(c+1)·M], or [2·M] with an unlimited budget. *)

val make : ?space_words:int -> unit -> Manager.t
