(** Cost-oblivious resizing-bucket manager (arXiv 1404.2019): each
    power-of-two size class owns one slotted arena that doubles when
    full, migrating the class's objects compactly; migrations are paid
    by the allocation volume recharged into the c-partial budget, and
    postponed resizes overflow outside every bucket.

    Stateful — construct one manager per execution. [init_slots] is
    the capacity a class starts (and restarts) with (default 4). *)

val make : ?init_slots:int -> unit -> Manager.t

(** {1 The state behind a manager, for tests} *)

type state

val create_state : init_slots:int -> state
val of_state : state -> Manager.t

val check_costs : state -> Pc_heap.Heap.t -> unit
(** Raises [Failure] unless every class's memoised bucket cost (the
    live words in its bucket, which a postponed resize reads) equals
    {!Evict.window_cost} over the bucket's arena. *)
