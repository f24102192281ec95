(** The reference heap: a hashtable object store plus a persistent
    address map over {!Free_index_ref}. Kept only as the oracle the
    kernel ({!Heap}) is checked against — by the differential audit
    watchdog and the tests. It feeds no telemetry. See
    {!Heap_intf.HEAP} for the interface documentation. *)

include Heap_intf.HEAP with type free_index = Free_index_ref.t
