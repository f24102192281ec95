(** "Compaction seldom": first fit plus a full sliding compaction every
    [period]·M allocated words (budget permitting) — the infrequent-
    full-compaction strategy of production runtimes. *)

val make : ?period:float -> unit -> Manager.t
