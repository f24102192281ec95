open Pc_heap
open Pc_manager

(* The program-facing side of the interaction model of Section 2.1.
   A program requests allocations and de-allocations through a driver;
   the driver routes placement decisions to the memory manager,
   enforces the live-space bound M, and reports the manager's
   compaction moves back to the program (the model lets the program
   observe object addresses, which is how the bad programs fragment the
   heap). *)

type move_note = { oid : Oid.t; src : int; dst : int; size : int }

exception Live_bound_exceeded of { requested : int; live : int; bound : int }

type t = { ctx : Ctx.t; manager : Manager.t }

let create ctx manager = { ctx; manager }

let heap t = Ctx.heap t.ctx
let live_bound t = Ctx.live_bound t.ctx
let live_words t = Heap.live_words (heap t)

(* Allocate [size] words. Returns the new object, its address, and the
   compaction moves the manager performed while serving the request
   (oldest first), read from the heap's move log, which is reset as
   the request starts: moves made in [on_free] are not reported. *)
let alloc t ~size =
  if size <= 0 then invalid_arg "Driver.alloc: non-positive size";
  let live = live_words t in
  let bound = live_bound t in
  if live + size > bound then
    raise (Live_bound_exceeded { requested = size; live; bound });
  let heap = heap t in
  Heap.reset_move_log heap;
  let addr = Manager.alloc t.manager t.ctx ~size in
  let moves =
    Heap.fold_move_log heap ~init:[] ~f:(fun oid ~src ~dst ~size acc ->
        { oid; src; dst; size } :: acc)
  in
  let oid = Heap.alloc heap ~addr ~size in
  (oid, addr, moves)

(* A manager with no free hook needs no record of the freed object. *)
let free t oid =
  let heap = heap t in
  if Manager.has_free_hook t.manager then begin
    let o = Heap.get heap oid in
    Heap.free heap oid;
    Manager.on_free t.manager t.ctx o
  end
  else Heap.free heap oid

(* Untraced and hook-free, a batch of frees leaves the same heap in
   any order: the gap set is canonical and every free bumps the free
   index's epoch once. Only a listener or a hook could tell. *)
let frees_commute t =
  not (Heap.has_listeners (heap t) || Manager.has_free_hook t.manager)

let high_water t = Heap.high_water (heap t)
