(** The heap kernel: an oid-indexed extent array, an address-to-oid
    array and an address bitset over {!Free_index}. O(1)
    alloc/free/move (plus the free-index update), which allocate
    nothing while no listener is attached; [clear_cost] and
    [occupied_words_in] walk the window's objects in the start bitset
    without building object records. Every mutation feeds the
    [heap.*] telemetry counters. See {!Heap_intf.HEAP} for the
    interface documentation. *)

include Heap_intf.HEAP with type free_index = Free_index.t

val pp_obj : Format.formatter -> obj -> unit
val pp_event : Format.formatter -> event -> unit
