(** The heap kernel: flat slot arrays plus an address bitset over
    {!Free_index}. O(1) alloc/free/move (plus the free-index update)
    and allocation-free range accounting; [clear_cost] walks the
    window's objects in the start bitset. Every mutation feeds the
    [heap.*] telemetry counters. See {!Heap_intf.HEAP} for the
    interface documentation. *)

include Heap_intf.HEAP with type free_index = Free_index.t

val pp_obj : Format.formatter -> obj -> unit
val pp_event : Format.formatter -> event -> unit
