(** Polylog-reallocation manager (arXiv 2602.15417, 2405.12152,
    simplified): Robson-aligned placement plus bottom-up aligned
    repacks at power-of-two epochs of allocation volume, each repack a
    budget-capped c-partial compaction.

    The first epoch fires at M allocated words (the live bound),
    doubling thereafter. *)

val make : unit -> Manager.t
