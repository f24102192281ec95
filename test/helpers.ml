(* Shared test fixtures. Seeds are fixed here so every suite exercises
   the same deterministic workloads — a failure in one suite reproduces
   verbatim from another. *)

open Pc_heap
open Pc_manager
open Pc_adversary
open Pc_exec

(* Default seeds, shared across suites. *)
let churn_seed = 11
let alt_churn_seed = 13

(* The standard random-churn workload (managers, telemetry suites). *)
let churn_program ~m ~seed =
  Random_workload.program ~seed ~churn:2_000 ~m
    ~dist:(Random_workload.Pow2 { lo_log = 0; hi_log = 5 }) ~target_live:(m / 2)
    ()

(* Run the standard churn against a registry manager. *)
let run_churn ?c key seed =
  let manager = Registry.construct_exn key in
  let program = churn_program ~m:4096 ~seed in
  Runner.run ?c ~program ~manager ()

(* A fresh unlimited-budget context over a hand-buildable heap. *)
let with_ctx f =
  let ctx = Ctx.create ~live_bound:4096 () in
  f ctx (Ctx.heap ctx)

(* A named one-shot program around a run closure. *)
let simple_program ~live_bound ~max_size run =
  Program.make ~name:"test" ~live_bound ~max_size run

(* Outcome equality down to the float fields — the engine suites pin
   bit-identical results across worker counts and cache round-trips. *)
let outcome : Runner.outcome Alcotest.testable =
  Alcotest.testable (fun ppf o -> Runner.pp_outcome ppf o) ( = )

let outcomes results = List.map Engine.outcome_exn results

(* A small PF/Robson/churn grid touching moving and non-moving
   managers — the standard sweep fixture. *)
let grid () =
  List.concat_map
    (fun c ->
      List.map
        (fun manager -> Spec.pf ~c ~manager ~m:(1 lsl 12) ~n:(1 lsl 6) ())
        [ "compacting"; "improved-ac"; "first-fit" ])
    [ 8.0; 16.0 ]
  @ List.map
      (fun manager -> Spec.robson ~manager ~m:(1 lsl 12) ~n:(1 lsl 5) ())
      [ "first-fit"; "buddy" ]
  @ [
      Spec.random_churn ~seed:churn_seed ~churn:500 ~c:8.0 ~manager:"best-fit"
        ~m:(1 lsl 10)
        ~dist:(Random_workload.Pow2 { lo_log = 0; hi_log = 4 })
        ~target_live:(1 lsl 9) ();
    ]

(* Process-unique temp directories (cache/journal isolation). *)
let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pc_test_%d_%d" (Unix.getpid ()) !counter)

(* Run [program] against registry manager [key] and also return the
   run's full event trace (see [Recording.manager]). *)
let recorded_run ?c ?failures_dir ~program key =
  let trace = Trace.create () in
  let manager = Recording.manager trace (Registry.construct_exn key) in
  let o = Runner.run ?c ?failures_dir ~program ~manager () in
  (o, trace)

(* What [iter] passes its callback, in order: [collect (Heap.iter_live
   h)] lists the live objects, [collect (iter2 (Free_index.iter_gaps
   fi))] the [(start, len)] gaps. *)
let collect iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.rev !acc

(* A two-argument iterator as one over pairs, for [collect]. *)
let iter2 iter f = iter (fun a b -> f (a, b))

(* Kernel-vs-reference comparisons over a [Heap] and a [Heap_ref] in
   the same state; [fail] reports the first difference and must not
   return. *)
module Diff = struct
  let same ~fail pp name a b =
    if a <> b then
      fail (Fmt.str "%s differs: kernel %a, reference %a" name pp a pp b)

  let int = Fmt.int
  let opt = Fmt.Dump.option Fmt.int
  let pairs = Fmt.Dump.list (Fmt.Dump.pair Fmt.int Fmt.int)
  let objs = Fmt.Dump.list Heap.pp_obj

  let fit ppf = function
    | Free_index.Gap a -> Fmt.pf ppf "Gap %d" a
    | Free_index.Tail a -> Fmt.pf ppf "Tail %d" a

  (* The O(1) aggregates of both heaps and their free indexes. *)
  let aggregates ~fail h r =
    let same pp name a b = same ~fail pp name a b in
    let fi = Heap.free_index h and fr = Heap_ref.free_index r in
    same int "high_water" (Heap.high_water h) (Heap_ref.high_water r);
    same int "live_words" (Heap.live_words h) (Heap_ref.live_words r);
    same int "live_objects" (Heap.live_objects h) (Heap_ref.live_objects r);
    same int "allocated_total" (Heap.allocated_total h)
      (Heap_ref.allocated_total r);
    same int "moved_total" (Heap.moved_total h) (Heap_ref.moved_total r);
    same int "freed_total" (Heap.freed_total h) (Heap_ref.freed_total r);
    same int "frontier" (Free_index.frontier fi) (Free_index_ref.frontier fr);
    same int "gap_count" (Free_index.gap_count fi)
      (Free_index_ref.gap_count fr);
    same int "free_below_frontier"
      (Free_index.free_below_frontier fi)
      (Free_index_ref.free_below_frontier fr);
    same int "largest_gap" (Free_index.largest_gap fi)
      (Free_index_ref.largest_gap fr)

  (* The full live-object and gap lists. *)
  let lists ~fail h r =
    same ~fail objs "iter_live"
      (collect (Heap.iter_live h))
      (collect (Heap_ref.iter_live r));
    same ~fail pairs "iter_gaps"
      (collect (iter2 (Free_index.iter_gaps (Heap.free_index h))))
      (collect (iter2 (Free_index_ref.iter_gaps (Heap_ref.free_index r))))

  (* The four unaligned fit queries at one [size], [first_fit_from]
     from each of [froms]. *)
  let unaligned_fits ~fail h r ~size ~froms =
    let same pp name a b = same ~fail pp name a b in
    let fi = Heap.free_index h and fr = Heap_ref.free_index r in
    same fit "first_fit"
      (Free_index.first_fit fi ~size)
      (Free_index_ref.first_fit fr ~size);
    List.iter
      (fun from ->
        same opt "first_fit_from"
          (Free_index.first_fit_from fi ~from ~size)
          (Free_index_ref.first_fit_from fr ~from ~size))
      froms;
    same opt "best_fit_gap"
      (Free_index.best_fit_gap fi ~size)
      (Free_index_ref.best_fit_gap fr ~size);
    same opt "worst_fit_gap"
      (Free_index.worst_fit_gap fi ~size)
      (Free_index_ref.worst_fit_gap fr ~size)

  (* The two aligned fit queries at one [size] and [align],
     [first_aligned_fit_from] from each of [froms]. *)
  let aligned_fits ~fail h r ~size ~align ~froms =
    let same pp name a b = same ~fail pp name a b in
    let fi = Heap.free_index h and fr = Heap_ref.free_index r in
    same fit "first_aligned_fit"
      (Free_index.first_aligned_fit fi ~size ~align)
      (Free_index_ref.first_aligned_fit fr ~size ~align);
    List.iter
      (fun from ->
        same opt "first_aligned_fit_from"
          (Free_index.first_aligned_fit_from fi ~from ~size ~align)
          (Free_index_ref.first_aligned_fit_from fr ~from ~size ~align))
      froms

  (* All six fit queries at one [size], [align] and [from]. *)
  let fits ~fail h r ~size ~align ~from =
    unaligned_fits ~fail h r ~size ~froms:[ from ];
    aligned_fits ~fail h r ~size ~align ~froms:[ from ]

  (* The [k] largest gaps, as a list and through the iterator. *)
  let largest_gaps ~fail h r ~k =
    let fi = Heap.free_index h in
    let expected = Free_index_ref.largest_gaps (Heap_ref.free_index r) ~k in
    same ~fail pairs "largest_gaps" (Free_index.largest_gaps fi ~k) expected;
    let seen = ref [] in
    Free_index.iter_largest_gaps fi ~k (fun s l -> seen := (s, l) :: !seen);
    same ~fail pairs "iter_largest_gaps" (List.rev !seen) expected

  (* The range queries over the window [\[start, stop)]. *)
  let window ~fail h r ~start ~stop =
    let same pp name a b = same ~fail pp name a b in
    same objs "objects_in"
      (Heap.objects_in h ~start ~stop)
      (Heap_ref.objects_in r ~start ~stop);
    same int "occupied_words_in"
      (Heap.occupied_words_in h ~start ~stop)
      (Heap_ref.occupied_words_in r ~start ~stop);
    same int "clear_cost"
      (Heap.clear_cost h ~start ~stop ~cap:max_int)
      (Heap_ref.clear_cost r ~start ~stop ~cap:max_int)
end

(* Every power of two up to [n], ascending. *)
let pow2s_upto n =
  let rec go a = if a > n then [] else a :: go (2 * a) in
  go 1

(* The zoo's default eviction window and page size, in words. *)
let page_words = 64

(* The query surface a manager reads to place or relocate an object of
   [size] words, compared on the state it read: before an [Alloc] at
   [at], or before a [Move] from [src] to [at]. [froms] holds where the
   previous allocation and the previous event stopped (a roving
   pointer's rest); [n] is the run's largest object size rounded up to
   a power of two; [top] bounds every address of the run. Compared:
   - the unaligned fits at [size] and its TLSF class rounding, from
     [at] and from each of [froms];
   - the aligned fits at every alignment up to [n] and every
     alignment dividing [at] (a block or page base an aligned query
     returned), at [size] and at the alignment itself, from the same
     addresses;
   - the largest gaps an eviction planner scans;
   - the range queries over the object's extents and over the aligned
     windows of up to [max n page_words] words containing them (the
     windows a planner prices or a page manager drains), and, for a
     move, the relocation fits from each such window's stop. *)
let surface ~fail ~n ~top h r ~size ~at ~src ~froms =
  let uniq l = List.sort_uniq compare l in
  let froms = uniq (at :: froms) in
  List.iter
    (fun size -> Diff.unaligned_fits ~fail h r ~size ~froms)
    (uniq [ size; Pc_manager.Tlsf.class_round ~sl_log:3 size ]);
  List.iter
    (fun align ->
      List.iter
        (fun size -> Diff.aligned_fits ~fail h r ~size ~align ~froms)
        (uniq [ size; max size align ]))
    (uniq
       (pow2s_upto n @ List.filter (fun a -> at mod a = 0) (pow2s_upto top)));
  Diff.largest_gaps ~fail h r ~k:page_words;
  let sites = match src with None -> [ at ] | Some src -> [ at; src ] in
  List.iter
    (fun addr ->
      Diff.window ~fail h r ~start:addr ~stop:(addr + size);
      List.iter
        (fun w ->
          let start = Word.align_down addr ~align:w in
          Diff.window ~fail h r ~start ~stop:(start + w);
          if src <> None then begin
            let froms = [ start + w ] in
            Diff.unaligned_fits ~fail h r ~size ~froms;
            Diff.aligned_fits ~fail h r ~size
              ~align:(Word.round_up_pow2 size) ~froms
          end)
        (pow2s_upto (max n page_words)))
    sites

(* Full object and gap lists are compared every this many events. *)
let lists_every = 256

(* Step a recorded trace onto a fresh kernel heap and a fresh reference
   heap in lockstep. After every event the aggregates must agree;
   before every [Alloc] and [Move] the query surface around it must
   agree (see [surface]); every [lists_every] events and at the end,
   the full object and gap lists must agree. Returns the kernel heap,
   which the caller can hold against the run's outcome. *)
let lockstep ~what trace =
  let h = Heap.create () and r = Heap_ref.create () in
  let n, top =
    List.fold_left
      (fun (n, top) { Trace.event; _ } ->
        match event with
        | Heap.Alloc o | Heap.Free o ->
            (max n o.size, max top (o.addr + o.size))
        | Heap.Move m -> (max n m.size, max top (max m.src m.dst + m.size)))
      (1, 1) (Trace.entries trace)
  in
  let n = Word.round_up_pow2 n and top = Word.round_up_pow2 top in
  let seq = ref 0 and last_alloc = ref 0 and last_event = ref 0 in
  let fail msg = Alcotest.failf "%s, event %d: %s" what !seq msg in
  let run side name f =
    try f ()
    with Invalid_argument msg ->
      fail (Fmt.str "%s rejects %s: %s" side name msg)
  in
  let surface ~size ~at ~src =
    surface ~fail ~n ~top h r ~size ~at ~src
      ~froms:[ !last_alloc; !last_event ]
  in
  Trace.iter trace (fun { Trace.seq = i; event } ->
      seq := i;
      (match event with
      | Heap.Alloc o ->
          surface ~size:o.size ~at:o.addr ~src:None;
          let a =
            run "kernel" "alloc" (fun () ->
                Heap.alloc h ~addr:o.addr ~size:o.size)
          and b =
            run "reference" "alloc" (fun () ->
                Heap_ref.alloc r ~addr:o.addr ~size:o.size)
          in
          Diff.same ~fail Diff.int "alloc oid" (Oid.to_int a) (Oid.to_int b);
          Diff.same ~fail Diff.int "recorded alloc oid" (Oid.to_int o.oid)
            (Oid.to_int a);
          last_alloc := o.addr + o.size;
          last_event := o.addr + o.size
      | Heap.Free o ->
          run "kernel" "free" (fun () -> Heap.free h o.oid);
          run "reference" "free" (fun () -> Heap_ref.free r o.oid);
          last_event := o.addr + o.size
      | Heap.Move m ->
          surface ~size:m.size ~at:m.dst ~src:(Some m.src);
          run "kernel" "move" (fun () -> Heap.move h m.oid ~dst:m.dst);
          run "reference" "move" (fun () -> Heap_ref.move r m.oid ~dst:m.dst);
          last_event := m.dst + m.size);
      Diff.aggregates ~fail h r;
      if (i + 1) mod lists_every = 0 then Diff.lists ~fail h r);
  Diff.lists ~fail h r;
  Heap.check_invariants h;
  Heap_ref.check_invariants r;
  h

(* The replayed kernel heap reproduces the run's outcome. *)
let check_replayed ~what (o : Runner.outcome) h =
  Alcotest.(check (list int))
    (what ^ ": replay reproduces hs, allocated, moved, freed, live")
    [ o.hs; o.allocated; o.moved; o.freed; o.final_live ]
    [
      Heap.high_water h;
      Heap.allocated_total h;
      Heap.moved_total h;
      Heap.freed_total h;
      Heap.live_words h;
    ]
