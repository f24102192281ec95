(** The adversary's book-keeping of "live or ghost" objects
    (Definition 4.1).

    Objects the manager compacts are immediately de-allocated on the
    heap but kept as {i ghosts} at their original allocation address;
    they participate in the program's decisions until the program's own
    de-allocation procedure discards them.

    An object is its heap oid. The view keeps, per oid, the original
    address, the size and whether it is a ghost; {!addr} and
    {!is_ghost} read them for a present oid. Every walk passes
    [oid orig_addr size]. *)

type t

val create : Driver.t -> t

val alloc : t -> size:int -> Pc_heap.Oid.t
(** Allocate and track; any tracked object the manager moved while
    serving the request is ghosted (freed on the heap, kept in the
    view) before this returns. *)

val mem : t -> Pc_heap.Oid.t -> bool
(** Is the object present (live or ghost)? *)

val addr : t -> Pc_heap.Oid.t -> int
(** The allocation-time address of a present object; ghosts "reside"
    here, and a live object has never moved from it. *)

val is_ghost : t -> Pc_heap.Oid.t -> bool

val free : t -> Pc_heap.Oid.t -> unit
(** Program-initiated de-allocation of a present object: a live one
    is freed on the heap; a ghost just disappears from the view. *)

val retain : t -> (Pc_heap.Oid.t -> int -> int -> bool) -> unit
(** [retain t keep] frees, as {!free} does, every present object for
    which [keep oid orig_addr size] is false. [keep] must be pure and
    use neither the view nor the heap: it may run on the objects in
    any order, interleaved with the frees. The heap frees come in the
    reverse of {!iter_present}'s order whenever something can observe
    them (a heap listener or the manager's [on_free] hook, see
    {!Driver.frees_commute}), once every object is judged, and in
    ascending oid order otherwise. *)

val drop_ghosts : t -> unit
(** Free every ghost, as {!free} does. Ghost frees emit no heap event
    and the order of later walks does not depend on them, so this
    takes no order. *)

val present_words : t -> int
(** Total size of live and ghost objects. *)

val present_count : t -> int

val iter_present : t -> (Pc_heap.Oid.t -> int -> int -> unit) -> unit
(** [iter_present t f] calls [f oid orig_addr size] on every present
    object in the order an [Oid.Table] created with size 1024 would,
    and the programs' decisions (and so their event streams) depend on
    it. The order is a sort key: bucket [Hashtbl.hash oid land (nb-1)]
    ascending, then oid descending, where [nb] starts at 1024 and
    doubles whenever the count passes [2 nb]. That is the table's order
    because the view inserts oids in increasing order, the table puts
    each new binding first in its bucket, and a resize keeps each
    chain's relative order. The order is fixed before the first
    callback. The callback must not alloc or free through the view. *)

val sum_present : t -> (int -> int -> int) -> int
(** [sum_present t f] is the sum of [f orig_addr size] over the present
    objects, visited in ascending oid order — for order-free
    aggregates, and faster than {!iter_present}. *)

val live_words : t -> int
