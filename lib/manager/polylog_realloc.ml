open Pc_heap

(* Polylogarithmic-overhead reallocation (Jin, "Memory Reallocation
   with Polylogarithmic Overhead", arXiv 2602.15417;
   Farach-Colton and Sheffield, arXiv 2405.12152), simplified to
   power-of-two epochs. The full algorithms maintain a recursive
   partition of the address space and rebuild geometrically larger
   pieces on a binary-counter schedule, paying polylog moved words per
   allocated word. This manager keeps the two load-bearing ingredients
   and drops the recursion:

   - placement is buddy-aligned (Robson's A_o): a size-s object goes
     to the lowest free address divisible by round_up_pow2 s, so
     between rebuilds fragmentation stays within the aligned-fit
     guarantee;

   - rebuilds fire at power-of-two epochs of allocation volume: when
     cumulative allocation crosses the next doubling (starting at the
     live bound M), the heap is repacked bottom-up — each live object
     in address order is re-placed at the lowest aligned position
     strictly below its current address, charging the budget per move
     and stopping as soon as the quota runs dry, which makes every
     rebuild a c-partial compaction.

   Doubling epochs mean O(log(s / M)) rebuilds over a run — the
   polylog schedule — while each rebuild moves at most the live set. *)

(* Slide each live object, in address order, to its lowest aligned fit
   below it, until the budget runs dry. *)
let repack ctx =
  let heap = Ctx.heap ctx in
  let free = Ctx.free_index ctx in
  let dry = ref false in
  List.iter
    (fun (o : Heap.obj) ->
      if not !dry then begin
        let align = Word.round_up_pow2 o.size in
        match Free_index.first_aligned_fit_gap free ~size:o.size ~align with
        | Some a when a < o.addr ->
            if Heap.can_move heap o.size then Heap.move heap o.oid ~dst:a
            else dry := true
        | _ -> ()
      end)
    (Heap.live_list heap)

let make ?(first_epoch_factor = 1.0) () =
  (* The state is the allocation volume at which the next epoch fires. *)
  let init ctx =
    ref
      (max 1 (int_of_float (first_epoch_factor *. float (Ctx.live_bound ctx))))
  in
  let alloc next_epoch ctx ~size =
    let heap = Ctx.heap ctx in
    if Heap.allocated_total heap >= !next_epoch then begin
      while Heap.allocated_total heap >= !next_epoch do
        next_epoch := !next_epoch * 2
      done;
      repack ctx
    end;
    let align = Word.round_up_pow2 size in
    match Free_index.first_aligned_fit (Ctx.free_index ctx) ~size ~align with
    | Free_index.Gap a | Free_index.Tail a -> a
  in
  Manager.stateful ~name:"polylog-realloc"
    ~description:
      "c-partial; aligned placement repacked at power-of-two epochs of \
       allocation volume"
    ~init alloc
