(** The program-facing side of the interaction model (Section 2.1).

    Programs allocate and free through a driver; the driver routes
    placement to the memory manager, enforces the live-space bound
    [M], and reports the manager's compaction moves back to the
    program. *)

type move_note = { oid : Pc_heap.Oid.t; src : int; dst : int; size : int }

exception Live_bound_exceeded of { requested : int; live : int; bound : int }

type t

val create : Pc_manager.Ctx.t -> Pc_manager.Manager.t -> t

val alloc : t -> size:int -> Pc_heap.Oid.t * int * move_note list
(** Returns the new object, its address, and the compaction moves the
    manager performed while serving this request (oldest first). Moves
    a manager makes in its [on_free] are not reported.
    Raises {!Live_bound_exceeded} if the program would exceed [M]. *)

val free : t -> Pc_heap.Oid.t -> unit

val frees_commute : t -> bool
(** [true] iff nothing can observe the order of a batch of {!free}s:
    the heap has no listener and the manager no [on_free] hook. Such a
    batch leaves the same heap whatever its order. *)

val heap : t -> Pc_heap.Heap.t
val live_bound : t -> int
val live_words : t -> int
val high_water : t -> int
