open Pc_heap

(* The execution context a memory manager operates in: the heap, which
   enforces the c-partial compaction budget over its own totals, and
   the program's declared live-space bound M (part of the model — the
   (c+1)M manager of [4] needs it).

   A context lives for one execution, so a manager's per-execution
   state is keyed by it ([Manager.stateful]). Managers never charge
   the budget themselves: [Heap.move] does, and they only *query* the
   remaining quota ([Heap.available], [Heap.can_move]). *)

type t = { heap : Heap.t; live_bound : int }

let create ?budget ~live_bound () =
  if live_bound <= 0 then invalid_arg "Ctx.create: non-positive live bound";
  let heap = Heap.create () in
  Option.iter (Heap.set_budget heap) budget;
  { heap; live_bound }

let heap t = t.heap
let live_bound t = t.live_bound
let free_index t = Heap.free_index t.heap
