open Pc_heap
open Pc_manager
open Pc_adversary

(* Every manager must produce valid placements (the heap rejects
   overlaps), respect the compaction budget (the context raises
   Budget.Exceeded otherwise), and keep the heap invariants intact.
   Random churn workloads exercise all of that end to end; additional
   unit tests pin down each policy's distinctive placement choices. *)

let run_churn = Helpers.run_churn

let test_all_managers_churn () =
  List.iter
    (fun (e : Registry.entry) ->
      let o = run_churn ~c:8.0 e.key Helpers.churn_seed in
      Alcotest.(check bool)
        (e.key ^ " compliant") true o.compliant;
      Alcotest.(check bool)
        (e.key ^ " heap covers live") true
        (o.hs >= o.final_live))
    (Registry.entries ())

let test_non_moving_never_move () =
  List.iter
    (fun (e : Registry.entry) ->
      if not e.moving then begin
        let o = run_churn ~c:2.0 e.key Helpers.alt_churn_seed in
        Alcotest.(check int) (e.key ^ " moved nothing") 0 o.moved
      end)
    (Registry.entries ())

(* ------------------------------------------------------------------ *)
(* Placement-policy unit tests on hand-built heaps                    *)

let with_ctx = Helpers.with_ctx

let test_first_fit_policy () =
  with_ctx (fun ctx heap ->
      ignore (Heap.alloc heap ~addr:0 ~size:10 : Oid.t);
      ignore (Heap.alloc heap ~addr:14 ~size:16 : Oid.t);
      ignore (Heap.alloc heap ~addr:46 ~size:14 : Oid.t);
      (* gaps: [10,14) and [30,46); tail at 60 *)
      Alcotest.(check int) "fits first gap" 10 (First_fit.alloc ctx ~size:4);
      Alcotest.(check int) "skips to second" 30 (First_fit.alloc ctx ~size:10);
      Alcotest.(check int) "tail" 60 (First_fit.alloc ctx ~size:32))

let test_best_fit_policy () =
  with_ctx (fun ctx heap ->
      ignore (Heap.alloc heap ~addr:0 ~size:10 : Oid.t);
      ignore (Heap.alloc heap ~addr:14 ~size:16 : Oid.t);
      ignore (Heap.alloc heap ~addr:46 ~size:14 : Oid.t);
      ignore (Heap.alloc heap ~addr:70 ~size:10 : Oid.t);
      (* gaps: [10,14)=4, [30,46)=16, [60,70)=10 *)
      Alcotest.(check int) "tightest gap wins" 60 (Best_fit.alloc ctx ~size:7);
      Alcotest.(check int) "exact fit" 10 (Best_fit.alloc ctx ~size:4);
      Alcotest.(check int) "frontier fallback" 80 (Best_fit.alloc ctx ~size:64))

let test_worst_fit_policy () =
  with_ctx (fun ctx heap ->
      ignore (Heap.alloc heap ~addr:0 ~size:10 : Oid.t);
      ignore (Heap.alloc heap ~addr:14 ~size:16 : Oid.t);
      ignore (Heap.alloc heap ~addr:46 ~size:14 : Oid.t);
      (* gaps: [10,14)=4, [30,46)=16 *)
      Alcotest.(check int) "largest gap" 30 (Worst_fit.alloc ctx ~size:4))

let test_aligned_fit_policy () =
  with_ctx (fun ctx heap ->
      ignore (Heap.alloc heap ~addr:0 ~size:3 : Oid.t);
      (* free from 3; an 8-word object must go to the 8-aligned 8 *)
      Alcotest.(check int) "aligned placement" 8 (Aligned_fit.alloc ctx ~size:8);
      (* a 5-word object also aligns to 8 (round_up_pow2 5 = 8) *)
      ignore (Heap.alloc heap ~addr:8 ~size:8 : Oid.t);
      Alcotest.(check int) "non-pow2 size aligns up" 16
        (Aligned_fit.alloc ctx ~size:5))

let test_buddy_padding_reserved () =
  let ctx = Ctx.create ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let buddy = Registry.construct_exn "buddy" in
  (* a 5-word object reserves a whole 8-word block *)
  let a1 = Manager.alloc buddy ctx ~size:5 in
  let o1 = Heap.alloc heap ~addr:a1 ~size:5 in
  Alcotest.(check int) "block aligned" 0 (a1 mod 8);
  (* the next 2-word request must NOT land in [a1+5, a1+8) *)
  let a2 = Manager.alloc buddy ctx ~size:2 in
  Alcotest.(check bool) "padding respected" true
    (a2 + 2 <= a1 + 5 || a2 >= a1 + 8);
  let o2 = Heap.alloc heap ~addr:a2 ~size:2 in
  (* free the 5-word object: its padding is released for reuse *)
  Heap.free heap o1;
  Manager.on_free buddy ctx (Heap.get heap o2);
  (* dummy to exercise on_free path for a live object too *)
  ignore (Manager.alloc buddy ctx ~size:1 : int)

let test_segregated_slots () =
  let ctx = Ctx.create ~live_bound:65536 () in
  let heap = Ctx.heap ctx in
  let seg = Segregated.make ~block_words:64 () in
  (* two size-8 objects must land in the same 64-word block *)
  let a1 = Manager.alloc seg ctx ~size:8 in
  let o1 = Heap.alloc heap ~addr:a1 ~size:8 in
  let a2 = Manager.alloc seg ctx ~size:8 in
  let _o2 = Heap.alloc heap ~addr:a2 ~size:8 in
  Alcotest.(check int) "same block" (a1 / 64) (a2 / 64);
  Alcotest.(check bool) "distinct slots" true (a1 <> a2);
  (* a size-4 object goes to a different block *)
  let a3 = Manager.alloc seg ctx ~size:4 in
  let _o3 = Heap.alloc heap ~addr:a3 ~size:4 in
  Alcotest.(check bool) "class-segregated" true (a3 / 64 <> a1 / 64);
  (* large objects get dedicated block spans *)
  let a4 = Manager.alloc seg ctx ~size:100 in
  Alcotest.(check int) "span aligned" 0 (a4 mod 64);
  let _o4 = Heap.alloc heap ~addr:a4 ~size:100 in
  (* freeing one small object and reallocating reuses its slot *)
  Heap.free heap o1;
  Manager.on_free seg ctx { Heap.oid = o1; addr = a1; size = 8 };
  let a5 = Manager.alloc seg ctx ~size:8 in
  Alcotest.(check int) "slot reused" a1 a5

let test_compacting_reuses_window () =
  (* When the heap would otherwise grow, the compacting manager clears
     a cheap window instead. One 1-word obstacle in an otherwise free
     region must be moved aside. *)
  let budget = Budget.create ~c:4.0 in
  let ctx = Ctx.create ~budget ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let mgr = Compacting.make () in
  (* layout: [0,60) live, [60,64) free, 1-word obstacle at 70,
     [128,176) live. The only 64-aligned window that can be cleared is
     [64,128), at the cost of moving the obstacle into the side gap. *)
  ignore (Heap.alloc heap ~addr:0 ~size:60 : Oid.t);
  let obstacle = Heap.alloc heap ~addr:70 ~size:1 in
  ignore (Heap.alloc heap ~addr:128 ~size:48 : Oid.t);
  (* request 64: no contiguous 64-word gap, tail would raise HWM *)
  let a = Manager.alloc mgr ctx ~size:64 in
  Alcotest.(check int) "window reused" 64 a;
  Alcotest.(check bool) "obstacle was moved" true
    ((Heap.get heap obstacle).addr <> 70);
  Alcotest.(check int) "budget charged" 1 (Heap.moved_total heap);
  Alcotest.(check bool) "window now free" true
    (Heap.is_free heap ~addr:64 ~size:64)

let test_tlsf_class_rounding () =
  (* sl_log = 3: 8 subclasses per power-of-two range *)
  Alcotest.(check int) "small passthrough" 7 (Tlsf.class_round ~sl_log:3 7);
  Alcotest.(check int) "exact boundary" 64 (Tlsf.class_round ~sl_log:3 64);
  (* 65 is in range [64,128), granularity 8: rounds to 72 *)
  Alcotest.(check int) "rounds into class" 72 (Tlsf.class_round ~sl_log:3 65);
  Alcotest.(check int) "upper part of range" 120 (Tlsf.class_round ~sl_log:3 113);
  with_ctx (fun ctx heap ->
      let tlsf = Tlsf.make ~sl_log:3 () in
      (* a 66-word gap does NOT satisfy a 65-word request (class 72) *)
      ignore (Heap.alloc heap ~addr:0 ~size:10 : Oid.t);
      ignore (Heap.alloc heap ~addr:76 ~size:10 : Oid.t);
      (* gap [10,76) = 66 words *)
      Alcotest.(check int) "good fit skips tight gap" 86
        (Manager.alloc tlsf ctx ~size:65);
      (* a 72-word gap does *)
      ignore (Heap.alloc heap ~addr:86 ~size:65 : Oid.t);
      ignore (Heap.alloc heap ~addr:160 ~size:4 : Oid.t);
      (* widen the first gap to [4,76) = 72 by freeing [0,10) — easier:
         a fresh ctx below *)
      ignore ctx)

let test_semispace_flip () =
  let budget = Budget.create ~c:2.0 in
  let ctx = Ctx.create ~budget ~live_bound:64 () in
  let heap = Ctx.heap ctx in
  let mgr = Semispace.make ~space_words:64 () in
  (* fill the from-space [0,64) *)
  let oids =
    List.init 4 (fun _ ->
        let a = Manager.alloc mgr ctx ~size:16 in
        Heap.alloc heap ~addr:a ~size:16)
  in
  (* free two objects; the bump pointer does not retract *)
  (match oids with
  | a :: b :: _ ->
      Heap.free heap a;
      Heap.free heap b
  | _ -> Alcotest.fail "setup");
  (* next allocation cannot bump (space full) -> flip into [64,128) *)
  let a = Manager.alloc mgr ctx ~size:16 in
  Alcotest.(check int) "flip copied survivors to to-space" (64 + 32) a;
  Alcotest.(check int) "copied words" 32 (Heap.moved_total heap);
  let _ = Heap.alloc heap ~addr:a ~size:16 in
  Alcotest.(check bool) "old space clear" true
    (Heap.occupied_words_in heap ~start:0 ~stop:64 = 0)

let test_semispace_overflow_when_budget_dry () =
  (* With a dry budget the flip is unaffordable: allocation overflows
     beyond both spaces instead of violating the c-partial rule. *)
  let budget = Budget.create ~c:64.0 in
  let ctx = Ctx.create ~budget ~live_bound:64 () in
  let heap = Ctx.heap ctx in
  let mgr = Semispace.make ~space_words:64 () in
  let _ =
    List.init 4 (fun _ ->
        let a = Manager.alloc mgr ctx ~size:16 in
        Heap.alloc heap ~addr:a ~size:16)
  in
  (* allocated 64, quota 1 < live 64: no flip possible *)
  let live_before = Heap.live_words heap in
  Heap.free heap (Pc_heap.Oid.of_int 0);
  let a = Manager.alloc mgr ctx ~size:16 in
  Alcotest.(check bool) "overflow beyond both spaces" true (a >= 128);
  Alcotest.(check int) "nothing moved" 0 (Heap.moved_total heap);
  ignore live_before

let test_sliding_periodic_compaction () =
  (* c = 1.5 so the quota (270/1.5 = 180) covers the 170 live words at
     slide time *)
  let budget = Budget.create ~c:1.5 in
  let ctx = Ctx.create ~budget ~live_bound:256 () in
  let heap = Ctx.heap ctx in
  let mgr = Sliding.make ~period:1.0 () in
  (* create a hole, then allocate past the compaction threshold *)
  let a = Heap.alloc heap ~addr:0 ~size:100 in
  ignore (Heap.alloc heap ~addr:100 ~size:100 : Oid.t);
  Heap.free heap a;
  (* threshold = 1.0 * 256; allocated so far = 200, this next
     allocation triggers the slide on its next call *)
  let x = Manager.alloc mgr ctx ~size:50 in
  Alcotest.(check int) "first fit into hole" 0 x;
  ignore (Heap.alloc heap ~addr:x ~size:50 : Oid.t);
  (* allocated = 250 < 256: still no slide *)
  Alcotest.(check int) "no compaction yet" 0 (Heap.moved_total heap);
  let y = Manager.alloc mgr ctx ~size:20 in
  ignore (Heap.alloc heap ~addr:y ~size:20 : Oid.t);
  Alcotest.(check int) "fills the hole, still no slide" 50 y;
  (* allocated = 270 >= 256 at the start of the next call: the
     survivor at [100,200) slides down to [70,170) before placement *)
  let z = Manager.alloc mgr ctx ~size:10 in
  ignore (Heap.alloc heap ~addr:z ~size:10 : Oid.t);
  Alcotest.(check int) "slid" 100 (Heap.moved_total heap);
  Alcotest.(check int) "placed after slide" 170 z

let test_bp_simple_bound () =
  (* bp-simple must stay within (c+1)M on the adversary. *)
  let m = 1 lsl 12 and n = 1 lsl 6 in
  let c = 4.0 in
  let program = Robson_pr.program ~m ~n () in
  let o = Runner.run ~c ~program ~manager:(Bp_simple.make ()) () in
  Alcotest.(check bool) "within (c+1)M" true
    (float_of_int o.hs <= (c +. 1.0) *. float_of_int m);
  Alcotest.(check bool) "compliant" true o.compliant

(* ------------------------------------------------------------------ *)
(* The related-literature zoo                                         *)

(* Drive a manager by hand: place through it, then mirror the
   placement on the heap (what the driver does). *)
let hand_driven mgr ctx heap =
  let alloc size =
    let a = Manager.alloc mgr ctx ~size in
    (Heap.alloc heap ~addr:a ~size, a)
  in
  let free (oid, _) =
    let o = Heap.get heap oid in
    Heap.free heap oid;
    Manager.on_free mgr ctx o
  in
  (alloc, free)

let test_meshing_merges_disjoint_pages () =
  let budget = Budget.create ~c:4.0 in
  let ctx = Ctx.create ~budget ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let mgr = Meshing.make ~page_words:16 () in
  let alloc, free = hand_driven mgr ctx heap in
  (* two full size-4 pages: [0,16) and [16,32) *)
  let page0 = List.init 4 (fun _ -> alloc 4) in
  let page1 = List.init 4 (fun _ -> alloc 4) in
  Alcotest.(check int) "pages packed" 32 (Heap.high_water heap);
  (* free slots 2,3 of page0 and 0,1 of page1: disjoint bitmaps *)
  free (List.nth page0 2);
  free (List.nth page0 3);
  free (List.nth page1 0);
  free (List.nth page1 1);
  (* a size-8 request needs a fresh page; no free aligned cell exists
     and the tail would grow the heap — only meshing avoids that *)
  let a = Manager.alloc mgr ctx ~size:8 in
  Alcotest.(check int) "released cell reused" 0 a;
  Alcotest.(check int) "merge charged the source page's live words" 8
    (Heap.moved_total heap);
  Alcotest.(check int) "survivors merged into one full page" 16
    (Heap.occupied_words_in heap ~start:16 ~stop:32);
  ignore (Heap.alloc heap ~addr:a ~size:8 : Oid.t);
  Alcotest.(check int) "no growth" 32 (Heap.high_water heap);
  Heap.check_invariants heap

let test_compact_fit_plugs_full_page_hole () =
  let budget = Budget.create ~c:4.0 in
  let ctx = Ctx.create ~budget ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let mgr = Compact_fit.make ~page_words:16 () in
  let alloc, free = hand_driven mgr ctx heap in
  (* two full size-4 pages: [0,16) and [16,32) *)
  let oids = Array.init 8 (fun _ -> alloc 4) in
  (* a hole in a full page leaves the class's single partial page; the
     next allocation fills exactly that hole *)
  free oids.(1);
  let _, a = alloc 4 in
  Alcotest.(check int) "hole reused directly" 4 a;
  (* two holes in different pages break the compact invariant: the
     repair at the next allocation plugs the lower page's hole with
     the highest slot of the higher partial page *)
  free oids.(2);
  free oids.(4);
  Alcotest.(check int) "nothing moved yet" 0 (Heap.moved_total heap);
  let _, a = alloc 4 in
  Alcotest.(check int) "repair moved one object" 4 (Heap.moved_total heap);
  Alcotest.(check int) "migrant plugged the low hole" 8
    (Heap.get heap (fst oids.(7))).addr;
  Alcotest.(check int) "allocation goes to the surviving partial page" 16 a;
  Heap.check_invariants heap

let test_cost_oblivious_resizes_on_volume () =
  let budget = Budget.create ~c:2.0 in
  let ctx = Ctx.create ~budget ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let mgr = Cost_oblivious.make ~init_slots:2 () in
  let alloc, _ = hand_driven mgr ctx heap in
  Alcotest.(check int) "bucket slot 0" 0 (snd (alloc 8));
  Alcotest.(check int) "bucket slot 1" 8 (snd (alloc 8));
  (* the bucket is full but the quota (16/2 = 8) cannot pay the
     16-word migration yet: allocations overflow outside the bucket *)
  Alcotest.(check int) "overflow" 16 (snd (alloc 8));
  Alcotest.(check int) "overflow again" 24 (snd (alloc 8));
  Alcotest.(check int) "nothing moved yet" 0 (Heap.moved_total heap);
  (* 32 allocated words recharged the quota to 16: the bucket doubles
     and the class migrates compactly *)
  Alcotest.(check int) "doubled bucket" 48 (snd (alloc 8));
  Alcotest.(check int) "migration paid by allocation volume" 16
    (Heap.moved_total heap);
  Alcotest.(check bool) "old bucket vacated" true
    (Heap.is_free heap ~addr:0 ~size:16);
  Heap.check_invariants heap

(* The per-class bucket cost a postponed resize reads is a running sum;
   it must equal [Evict.window_cost] over the bucket after every step.
   The check runs before each request and after each free, so every
   placed object and every migration is covered. c = 2 keeps the
   budget tight, so resizes are postponed and classes overflow too. *)
let prop_cost_oblivious_memo =
  QCheck.Test.make ~name:"cost-oblivious bucket cost memo" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let check st ctx = Cost_oblivious.check_costs st (Ctx.heap ctx) in
      let manager =
        Manager.stateful ~name:"cost-oblivious"
          ~init:(fun _ -> Cost_oblivious.create_state ~init_slots:2)
          ~on_free:(fun st ctx o ->
            Cost_oblivious.on_free st ctx o;
            check st ctx)
          (fun st ctx ~size ->
            check st ctx;
            Cost_oblivious.alloc st ctx ~size)
      in
      let o =
        Runner.run ~c:2.0 ~program:(Helpers.churn_program ~m:2048 ~seed)
          ~manager ()
      in
      o.moved > 0)

let test_polylog_epoch_repack () =
  let budget = Budget.create ~c:2.0 in
  let ctx = Ctx.create ~budget ~live_bound:64 () in
  let heap = Ctx.heap ctx in
  let mgr = Polylog_realloc.make () in
  let alloc, free = hand_driven mgr ctx heap in
  (* aligned placement up to the first epoch (M = 64 allocated words) *)
  let o1 = alloc 8 and o2 = alloc 8 and o3 = alloc 8 and o4 = alloc 8 in
  Alcotest.(check (list int)) "aligned placement" [ 0; 8; 16; 24 ]
    [ snd o1; snd o2; snd o3; snd o4 ];
  free o1;
  free o3;
  let o5 = alloc 16 and o6 = alloc 16 in
  Alcotest.(check (list int)) "holes unusable before repack" [ 32; 48 ]
    [ snd o5; snd o6 ];
  Alcotest.(check int) "no repack yet" 0 (Heap.moved_total heap);
  (* allocated = 64 = M: the next request triggers the epoch repack,
     sliding objects to their lowest aligned fit until the quota
     (64/2 = 32) runs dry — a partial compaction *)
  let _, a = alloc 8 in
  Alcotest.(check int) "repack stopped at the quota" 32 (Heap.moved_total heap);
  Alcotest.(check int) "first survivor slid down" 0
    (Heap.get heap (fst o2)).addr;
  Alcotest.(check int) "last survivor out of budget, unmoved" 48
    (Heap.get heap (fst o6)).addr;
  Alcotest.(check int) "placement into the repacked gap" 32 a;
  Heap.check_invariants heap

let test_register_rejects_duplicates () =
  let before = Registry.keys () in
  (try
     Registry.register
       {
         key = "first-fit";
         summary = "shadowing duplicate";
         moving = false;
         construct = (fun () -> First_fit.manager);
       };
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "error names the duplicate key" true
       (contains msg "first-fit"));
  Alcotest.(check (list string)) "registry unchanged" before (Registry.keys ())

let test_registry () =
  Alcotest.(check int) "seventeen managers" 17 (List.length (Registry.entries ()));
  Alcotest.(check bool) "find known" true (Registry.find "buddy" <> None);
  Alcotest.(check bool) "find unknown" true (Registry.find "nope" = None);
  (try
     ignore (Registry.construct_exn "nope");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* Random churn against every manager, as a property over seeds. *)
let prop_churn_all =
  QCheck.Test.make ~name:"every manager survives random churn" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.for_all
        (fun (e : Registry.entry) ->
          let o = run_churn ~c:6.0 e.key seed in
          o.compliant && o.hs >= o.final_live)
        (Registry.entries ()))

let () =
  Alcotest.run "managers"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "all managers churn" `Quick test_all_managers_churn;
          Alcotest.test_case "non-moving never move" `Quick
            test_non_moving_never_move;
          Alcotest.test_case "bp-simple bound" `Quick test_bp_simple_bound;
        ] );
      ( "policies",
        [
          Alcotest.test_case "first fit" `Quick test_first_fit_policy;
          Alcotest.test_case "best fit" `Quick test_best_fit_policy;
          Alcotest.test_case "worst fit" `Quick test_worst_fit_policy;
          Alcotest.test_case "aligned fit" `Quick test_aligned_fit_policy;
          Alcotest.test_case "buddy padding" `Quick test_buddy_padding_reserved;
          Alcotest.test_case "segregated slots" `Quick test_segregated_slots;
          Alcotest.test_case "compacting reuse" `Quick
            test_compacting_reuses_window;
          Alcotest.test_case "tlsf class rounding" `Quick
            test_tlsf_class_rounding;
          Alcotest.test_case "semispace flip" `Quick test_semispace_flip;
          Alcotest.test_case "semispace overflow" `Quick
            test_semispace_overflow_when_budget_dry;
          Alcotest.test_case "sliding compaction" `Quick
            test_sliding_periodic_compaction;
          Alcotest.test_case "meshing merge" `Quick
            test_meshing_merges_disjoint_pages;
          Alcotest.test_case "compact-fit plug" `Quick
            test_compact_fit_plugs_full_page_hole;
          Alcotest.test_case "cost-oblivious resize" `Quick
            test_cost_oblivious_resizes_on_volume;
          Alcotest.test_case "polylog epoch repack" `Quick
            test_polylog_epoch_repack;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "duplicate registration" `Quick
            test_register_rejects_duplicates;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_churn_all;
          QCheck_alcotest.to_alcotest prop_cost_oblivious_memo;
        ] );
    ]
