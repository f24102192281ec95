(** The free-index kernel: a mutable 32-ary radix bitmap over gap start
    addresses with per-node max-gap-length augmentation. Occupy,
    release and fit queries are O(log32 address-range) and allocate
    nothing on the hot path; every fit query counts one
    [free_index.searches]. See {!Heap_intf.FREE_INDEX} for the
    interface documentation. *)

include Heap_intf.FREE_INDEX

val epoch : t -> int
(** A counter that goes up on every [release] and on every [occupy]
    that does not start exactly at the frontier. While it stands still
    the gap set is unchanged and the only mutation has been tail
    growth, which touches no word below the earlier frontier, so a
    planner may reuse results derived from the gaps (Evict's window
    scan does). *)
