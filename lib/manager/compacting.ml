open Pc_heap

(* The realistic c-partial compacting manager the lower bound is aimed
   at. Placement is first fit; when no gap fits and placing at the tail
   would raise the high-water mark, the manager tries to clear the
   cheapest aligned window by relocating its objects into other gaps,
   within the compaction budget. *)

(* How much budget one eviction may burn, as a multiple of the window
   size. The paper's PF keeps every chunk at density 2^-l > 1/c, so
   each cleared window costs more than the allocation recharges — with
   any cap the budget eventually runs dry and the heap must grow, which
   is the theorem in action. *)
let move_cap_factor = 2.0

(* Candidate windows tried per allocation. *)
let max_attempts = 3

(* Tiny allocations share eviction work: clearing a 64-word window for
   a 1-word request leaves the remainder as a gap for the requests
   that follow. *)
let min_window = 64

let make () =
  let alloc evict ctx ~size =
    let free = Ctx.free_index ctx in
    match Free_index.first_fit free ~size with
    | Free_index.Gap a -> a
    | Free_index.Tail tail ->
        let heap = Ctx.heap ctx in
        if tail + size <= Heap.high_water heap then tail
        else begin
          let window = max (Word.round_up_pow2 size) min_window in
          let move_cap = int_of_float (move_cap_factor *. float window) in
          match
            Evict.try_evict evict ctx ~size:window ~align:window ~move_cap
              ~max_attempts
          with
          | Some a -> a
          | None ->
              (* Re-read the frontier: failed attempts may have moved
                 objects and changed the free space. *)
              Free_index.frontier free
        end
  in
  Manager.stateful ~name:"compacting"
    ~description:
      "c-partial; first fit, clearing the cheapest aligned window under \
       budget when the heap would otherwise grow"
    ~init:(fun _ -> Evict.create ())
    alloc
