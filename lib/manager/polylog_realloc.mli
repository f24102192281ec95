(** Polylog-reallocation manager (arXiv 2602.15417, 2405.12152,
    simplified): Robson-aligned placement plus bottom-up aligned
    repacks at power-of-two epochs of allocation volume, each repack a
    budget-capped c-partial compaction.

    The first epoch fires at [first_epoch_factor * M] allocated words
    (default 1.0), doubling thereafter. *)

val make : ?first_epoch_factor:float -> unit -> Manager.t
