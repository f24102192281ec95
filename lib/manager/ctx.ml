open Pc_heap

(* The execution context a memory manager operates in: the heap, the
   c-partial compaction budget, and the program's declared live-space
   bound M (part of the model — the (c+1)M manager of [4] needs it).

   Budget accounting is wired into the heap kernel: [Heap.alloc]
   recharges the budget and [Heap.move] drains it (raising
   Budget.Exceeded when a manager over-compacts), with no event
   listener involved. Managers therefore never touch the budget except
   to *query* the remaining quota. *)

type candidate = { window_start : int; cost : int }

(* Evict's last window scan, valid while the free index's epoch, the
   window size and the alignment are the ones it was made for. *)
type window_scan = {
  mutable epoch : int; (* -1 until the first scan *)
  mutable size : int;
  mutable align : int;
  mutable costed : candidate list; (* below the frontier, by (cost, start) *)
  mutable pending : int list; (* starts not yet below the frontier, ascending *)
}

type t = {
  heap : Heap.t;
  budget : Budget.t;
  live_bound : int;
  (* Generation-stamped scratch for planners (Evict's window dedup):
     a slot is considered marked iff it holds the current generation,
     so clearing between uses is a single counter bump. *)
  mutable scratch : int array;
  mutable scratch_gen : int;
  windows : window_scan;
}

let create ?budget ~live_bound () =
  if live_bound <= 0 then invalid_arg "Ctx.create: non-positive live bound";
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let heap = Heap.create () in
  Heap.set_budget heap budget;
  {
    heap;
    budget;
    live_bound;
    scratch = [||];
    scratch_gen = 0;
    windows = { epoch = -1; size = 0; align = 0; costed = []; pending = [] };
  }

let heap t = t.heap
let budget t = t.budget
let live_bound t = t.live_bound
let free_index t = Heap.free_index t.heap
