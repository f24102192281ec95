(** The execution context a memory manager operates in.

    Bundles the heap, the c-partial compaction budget, and the
    program's declared live-space bound [M]. Budget accounting is wired
    automatically: heap [Alloc] events recharge the budget and [Move]
    events drain it, raising [Pc_heap.Budget.Exceeded] when a manager
    compacts beyond its quota. *)

type t = {
  heap : Pc_heap.Heap.t;
  budget : Pc_heap.Budget.t;
  live_bound : int;  (** the paper's [M], in words *)
  mutable scratch : int array;
      (** generation-stamped planner scratch; a slot is marked iff it
          holds [scratch_gen] *)
  mutable scratch_gen : int;
}

val create : ?budget:Pc_heap.Budget.t -> live_bound:int -> unit -> t
(** Fresh heap with budget listeners installed. [budget] defaults to
    {!Pc_heap.Budget.unlimited}. *)

val heap : t -> Pc_heap.Heap.t
val budget : t -> Pc_heap.Budget.t
val live_bound : t -> int
val free_index : t -> Pc_heap.Free_index.t
