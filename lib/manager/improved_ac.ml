open Pc_heap

(* A Theorem-2-inspired c-partial manager. The exact algorithm behind
   Theorem 2 appears only in the paper's full version; this manager
   realises the idea sketched in the conference text — Robson-style
   aligned placement (good when compaction is scarce, c > log n)
   augmented with eviction of sparse aligned blocks when the heap would
   otherwise grow.

   Placement of a size-s object (2^k = round_up_pow2 s):
   1. lowest 2^k-aligned fit in an existing gap;
   2. else, if extending would raise the high-water mark, clear the
      cheapest aligned window whose occupancy is below the density
      threshold [theta * window / c] (cheap enough that, amortised,
      reuse beats growth), relocating the displaced objects
      aligned-first-fit;
   3. else, extend at the (aligned) frontier.

   Windows are at least [min_window] words and at most [max_attempts]
   candidates are tried per allocation, as in [Compacting].

   See DESIGN.md, "Substitutions". *)

let theta = 4.0
let max_attempts = 3
let min_window = 64

let make () =
  let relocate ctx ~avoid (o : Heap.obj) =
    let free = Ctx.free_index ctx in
    let align = Word.round_up_pow2 o.size in
    match Free_index.first_aligned_fit_gap free ~size:o.size ~align with
    | Some a
      when a + o.size <= Interval.start avoid || a >= Interval.stop avoid ->
        Some a
    | Some _ ->
        Free_index.first_aligned_fit_from free ~from:(Interval.stop avoid)
          ~size:o.size ~align
    | None -> None
  in
  let alloc evict ctx ~size =
    let free = Ctx.free_index ctx in
    let align = Word.round_up_pow2 size in
    match Free_index.first_aligned_fit free ~size ~align with
    | Free_index.Gap a -> a
    | Free_index.Tail tail ->
        let heap = Ctx.heap ctx in
        if tail + size <= Heap.high_water heap then tail
        else begin
          let window = max align min_window in
          let budget = Heap.budget heap in
          let move_cap =
            if Budget.is_unlimited budget then window
            else int_of_float (theta *. float window /. Budget.c budget)
          in
          match
            Evict.try_evict evict ctx ~size:window ~align:window ~move_cap
              ~max_attempts ~relocate
          with
          | Some a -> a
          | None -> Word.align_up (Free_index.frontier free) ~align
        end
  in
  Manager.stateful ~name:"improved-ac"
    ~description:
      "c-partial; Theorem-2-inspired: aligned placement plus eviction of \
       sparse aligned windows"
    ~init:(fun _ -> Evict.create ())
    alloc
