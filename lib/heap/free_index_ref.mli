(** The reference free index: an AVL gap tree ({!Gap_tree}) plus a
    by-length set, with exact fit queries logarithmic in the number of
    gaps. Kept only as the oracle {!Free_index} is checked against.
    See {!Heap_intf.FREE_INDEX} for the interface documentation. *)

include Heap_intf.FREE_INDEX
