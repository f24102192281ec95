(** The free-index kernel: a mutable 32-ary radix bitmap over gap start
    addresses with per-node max-gap-length augmentation. Occupy,
    release and fit queries are O(log32 address-range) and allocate
    nothing on the hot path; every fit query counts one
    [free_index.searches]. See {!Heap_intf.FREE_INDEX} for the
    interface documentation. *)

include Heap_intf.FREE_INDEX
