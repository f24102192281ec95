(** The execution context a memory manager operates in.

    Bundles the heap, the c-partial compaction budget, and the
    program's declared live-space bound [M]. Budget accounting is wired
    into the heap kernel ({!Pc_heap.Heap.set_budget}): [Heap.alloc]
    recharges the budget and [Heap.move] drains it, raising
    [Pc_heap.Budget.Exceeded] when a manager compacts beyond its
    quota. No event listener is attached. *)

type candidate = { window_start : int; cost : int }
(** An aligned window and the total size of the objects it
    intersects (see {!Evict}). *)

(** Evict's last window scan, reused while
    {!Pc_heap.Free_index.epoch}, the window size and the alignment
    match. *)
type window_scan = {
  mutable epoch : int;  (** [-1] until the first scan *)
  mutable size : int;
  mutable align : int;
  mutable costed : candidate list;
      (** windows below the frontier, ordered by (cost, start) *)
  mutable pending : int list;
      (** window starts not yet below the frontier, ascending *)
}

type t = {
  heap : Pc_heap.Heap.t;
  budget : Pc_heap.Budget.t;
  live_bound : int;  (** the paper's [M], in words *)
  mutable scratch : int array;
      (** generation-stamped planner scratch; a slot is marked iff it
          holds [scratch_gen] *)
  mutable scratch_gen : int;
  windows : window_scan;
}

val create : ?budget:Pc_heap.Budget.t -> live_bound:int -> unit -> t
(** Fresh heap that feeds [budget], which defaults to
    {!Pc_heap.Budget.unlimited}. *)

val heap : t -> Pc_heap.Heap.t
val budget : t -> Pc_heap.Budget.t
val live_bound : t -> int
val free_index : t -> Pc_heap.Free_index.t
