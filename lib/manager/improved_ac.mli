(** A Theorem-2-inspired c-partial manager: Robson-style aligned
    placement augmented with eviction of sparse aligned windows (the
    exact Theorem 2 algorithm is only in the paper's full version; see
    DESIGN.md, "Substitutions").

    A window of [2{^k}] words is cheap enough to clear when its
    occupancy is below [4·2{^k}/c]. *)

val make : unit -> Manager.t
