(** The realistic c-partial compacting manager: first fit plus
    on-demand eviction of the cheapest aligned window when the heap
    would otherwise grow. Windows are at least 64 words; one eviction
    may burn at most twice the window size of budget, and at most
    three candidate windows are tried per allocation. *)

val make : unit -> Manager.t
