(** The execution context a memory manager operates in.

    Holds the heap, which enforces the c-partial compaction budget over
    its own [allocated_total] and [moved_total]
    ({!Pc_heap.Heap.set_budget}: [Heap.move] raises
    [Pc_heap.Budget.Exceeded] when a manager compacts beyond its
    quota), and the program's declared live-space bound [M]. One
    context serves one execution: {!Manager.stateful} keys a manager's
    per-execution state by it. *)

type t

val create : ?budget:Pc_heap.Budget.t -> live_bound:int -> unit -> t
(** Fresh heap that enforces [budget], which defaults to
    {!Pc_heap.Budget.unlimited}. *)

val heap : t -> Pc_heap.Heap.t

val live_bound : t -> int
(** The paper's [M], in words. *)

val free_index : t -> Pc_heap.Free_index.t
