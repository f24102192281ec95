open Pc_heap
open Pc_manager

(* The shared eviction machinery: candidate discovery around gaps,
   cost accounting (straddlers count fully), relocation targeting, and
   budget-capped eviction. *)

let ctx_with ~c layout =
  let budget = Budget.create ~c in
  let ctx = Ctx.create ~budget ~live_bound:65536 () in
  let heap = Ctx.heap ctx in
  let oids = List.map (fun (addr, size) -> Heap.alloc heap ~addr ~size) layout in
  (ctx, heap, oids)

let test_window_cost () =
  let _, heap, _ =
    ctx_with ~c:4.0 [ (0, 10); (60, 16); (100, 4) ]
  in
  Alcotest.(check int) "empty window" 0 (Evict.window_cost heap ~start:16 ~size:32);
  Alcotest.(check int) "contained object" 4
    (Evict.window_cost heap ~start:96 ~size:16);
  (* the 16-word object at [60,76) straddles the window [64,128): it
     counts at FULL size, because evicting the window means moving the
     whole object *)
  Alcotest.(check int) "straddler counts fully" (16 + 4)
    (Evict.window_cost heap ~start:64 ~size:64)

let test_window_candidates_order () =
  (* three windows of size 32 with occupancies 0 (skipped by gap
     discovery only if empty — empty windows still listed), 2, 12:
     candidates come cheapest first *)
  let ctx, _, _ =
    ctx_with ~c:4.0 [ (0, 30); (34, 2); (64, 12); (120, 8) ]
  in
  let cands =
    Evict.window_candidates (Evict.create ()) ctx ~size:32 ~align:32
  in
  (match cands with
  | first :: second :: _ ->
      Alcotest.(check int) "cheapest window" 32 first.window_start;
      Alcotest.(check int) "cheapest cost" 2 first.cost;
      Alcotest.(check bool) "ordered by cost" true (second.cost >= first.cost)
  | _ -> Alcotest.fail "expected at least two candidates");
  (* all candidates lie below the frontier and on the alignment grid *)
  List.iter
    (fun (c : Evict.candidate) ->
      Alcotest.(check int) "aligned" 0 (c.window_start mod 32);
      Alcotest.(check bool) "below frontier" true (c.window_start + 32 <= 128))
    cands

let test_relocate_avoids_window () =
  let ctx, heap, oids = ctx_with ~c:4.0 [ (0, 28); (34, 2); (120, 20) ] in
  ignore oids;
  (* gaps: [28,34) = 6, [36,120) = 84. Avoid [32,64): the first-fit
     target for a 2-word object would be 28 (fine), but for a 40-word
     object the only gap big enough starts inside the window —
     relocation must resume at 64 ([64,104) fits within [36,120)). *)
  let small = { Heap.oid = Oid.of_int 99; addr = 34; size = 2 } in
  Alcotest.(check (option int)) "small object to early gap" (Some 28)
    (Evict.relocate_first_fit ctx ~window_start:32 ~window_stop:64 small);
  let large = { Heap.oid = Oid.of_int 98; addr = 34; size = 40 } in
  Alcotest.(check (option int)) "large object past the window" (Some 64)
    (Evict.relocate_first_fit ctx ~window_start:32 ~window_stop:64 large);
  ignore heap

(* Layout with no fully-free aligned 32-word window: the cheapest
   window is [32,64) at cost 12. *)
let capped_layout = [ (0, 30); (40, 12); (64, 28); (112, 8) ]

let test_try_evict_respects_budget () =
  (* The cheapest window costs 12 but the quota is 1: eviction must
     fail and move nothing. *)
  let ctx, heap, _ = ctx_with ~c:64.0 capped_layout in
  (* allocated = 78, quota = 78/64 = 1 *)
  Alcotest.(check int) "tiny quota" 1 (Heap.available heap);
  let r =
    Evict.try_evict (Evict.create ()) ctx ~size:32 ~align:32 ~move_cap:100
  in
  Alcotest.(check bool) "no eviction" true (r = None);
  Alcotest.(check int) "nothing moved" 0 (Heap.moved_total heap)

let test_try_evict_move_cap () =
  (* Plenty of budget but a small move_cap: same refusal. *)
  let ctx, heap, _ = ctx_with ~c:2.0 capped_layout in
  let evict = Evict.create () in
  let r = Evict.try_evict evict ctx ~size:32 ~align:32 ~move_cap:4 in
  Alcotest.(check bool) "cap refuses" true (r = None);
  Alcotest.(check int) "nothing moved" 0 (Heap.moved_total heap);
  (* raise the cap: [32,64) clears; its 12-word occupant cannot use
     the [52,64) gap (inside the window) and lands at [92,104) *)
  let r = Evict.try_evict evict ctx ~size:32 ~align:32 ~move_cap:16 in
  Alcotest.(check (option int)) "window cleared" (Some 32) r;
  Alcotest.(check bool) "free now" true (Heap.is_free heap ~addr:32 ~size:32);
  Alcotest.(check int) "moved the occupant" 12 (Heap.moved_total heap)

let test_try_evict_straddler () =
  (* An object straddling the window boundary must be moved whole. *)
  let ctx, heap, oids = ctx_with ~c:2.0 [ (0, 24); (60, 8); (96, 30) ] in
  let straddler = List.nth oids 1 in
  (* object [60,68) straddles windows [32,64) and [64,96) *)
  let r =
    Evict.try_evict (Evict.create ()) ctx ~size:32 ~align:32 ~move_cap:32
  in
  Alcotest.(check (option int)) "cleared a window" (Some 32) r;
  Alcotest.(check bool) "straddler moved entirely" true
    (let a = (Heap.get heap straddler).addr in
     a + 8 <= 32 || a >= 64);
  Alcotest.(check int) "charged full size" 8 (Heap.moved_total heap)

(* ------------------------------------------------------------------ *)
(* Window-cost accounting under the page-granular managers: a meshing
   merge must charge the budget exactly [window_cost] of the source
   page, and a compact-fit plug exactly [window_cost] of the donor
   slot. The oracle audits the c-partial rule independently on every
   event, so a mis-charged move trips it immediately. Objects are
   3 words in 4-word slots, making live words differ from slot words —
   a manager charging slot granularity fails these checks. *)

module Oracle = Pc_audit.Oracle

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

let test_meshing_merge_charges_window_cost () =
  let budget = Budget.create ~c:4.0 in
  let ctx = Ctx.create ~budget ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let oracle = Oracle.attach ~level:Oracle.Full ~sample_every:1 ~c:4.0 heap in
  let mgr = Meshing.make ~page_words:16 () in
  let alloc, free = hand_driven mgr ctx heap in
  (* two full pages of 3-word objects in 4-word slots *)
  let page0 = List.init 4 (fun _ -> alloc 3) in
  let page1 = List.init 4 (fun _ -> alloc 3) in
  free (List.nth page0 2);
  free (List.nth page0 3);
  free (List.nth page1 0);
  free (List.nth page1 1);
  (* the source page [0,16) holds 2 live objects = 6 words, not the
     8 words of its two occupied slots *)
  let expected = Evict.window_cost heap ~start:0 ~size:16 in
  Alcotest.(check int) "source page costs its live words" 6 expected;
  (* a size-8 request forces a fresh page: meshing releases [0,16) *)
  let _, a = alloc 8 in
  Alcotest.(check int) "merge reused the released cell" 0 a;
  Alcotest.(check int) "budget charged exactly window_cost" expected
    (Heap.moved_total heap);
  Oracle.finish oracle;
  Heap.check_invariants heap

let test_compact_fit_plug_charges_window_cost () =
  let budget = Budget.create ~c:4.0 in
  let ctx = Ctx.create ~budget ~live_bound:4096 () in
  let heap = Ctx.heap ctx in
  let oracle = Oracle.attach ~level:Oracle.Full ~sample_every:1 ~c:4.0 heap in
  let mgr = Compact_fit.make ~page_words:16 () in
  let alloc, free = hand_driven mgr ctx heap in
  let oids = Array.init 8 (fun _ -> alloc 3) in
  (* holes in two different pages break the compact invariant *)
  free oids.(2);
  free oids.(4);
  (* the repair migrant is the donor page's highest slot [28,32) *)
  let expected = Evict.window_cost heap ~start:28 ~size:4 in
  Alcotest.(check int) "donor slot costs its live words" 3 expected;
  let _, a = alloc 3 in
  Alcotest.(check int) "budget charged exactly window_cost" expected
    (Heap.moved_total heap);
  Alcotest.(check int) "migrant plugged the low hole" 8
    (Heap.get heap (fst oids.(7))).addr;
  Alcotest.(check int) "allocation went to the surviving partial page" 16 a;
  Oracle.finish oracle;
  Heap.check_invariants heap

(* ------------------------------------------------------------------ *)
(* The window scan kept in an [Evict.t] must be invisible: after any
   sequence of mutations, [window_candidates] equals a from-scratch scan
   of the 64 largest gaps costed on a reference heap kept in lockstep. *)

type op =
  | At_frontier of int (* size *)
  | In_gap of int * int (* gap pick, size *)
  | Past_frontier of int * int (* distance, size *)
  | Free_any of int (* live-object pick *)
  | Free_tail
  | Move of int * int (* live-object pick, destination pick *)

let op_gen =
  QCheck.Gen.(
    let size = int_range 1 24 in
    frequency
      [
        (4, map (fun s -> At_frontier s) size);
        (3, map2 (fun g s -> In_gap (g, s)) nat size);
        (1, map2 (fun d s -> Past_frontier (d, s)) (int_range 1 40) size);
        (3, map (fun i -> Free_any i) nat);
        (1, return Free_tail);
        (2, map2 (fun i d -> Move (i, d)) nat nat);
      ])

let pp_op ppf = function
  | At_frontier s -> Fmt.pf ppf "At_frontier %d" s
  | In_gap (g, s) -> Fmt.pf ppf "In_gap (%d, %d)" g s
  | Past_frontier (d, s) -> Fmt.pf ppf "Past_frontier (%d, %d)" d s
  | Free_any i -> Fmt.pf ppf "Free_any %d" i
  | Free_tail -> Fmt.pf ppf "Free_tail"
  | Move (i, d) -> Fmt.pf ppf "Move (%d, %d)" i d

(* A fresh scan: the windows overlapping each of the 64 largest gaps
   (the first four and the last), those wholly below the frontier,
   costed on the reference heap and sorted by (cost, start). *)
let fresh_candidates r ~size ~align =
  let fr = Heap_ref.free_index r in
  let frontier = Free_index_ref.frontier fr in
  let windows =
    List.concat_map
      (fun (gs, gl) ->
        let w0 = gs / align and w1 = (gs + gl - 1) / align in
        List.init (min w1 (w0 + 3) - w0 + 1) (fun i -> w0 + i) @ [ w1 ])
      (Free_index_ref.largest_gaps fr ~k:64)
  in
  List.sort_uniq Int.compare windows
  |> List.filter_map (fun w ->
         let start = w * align in
         if start + size > frontier then None
         else
           Some
             ( Heap_ref.clear_cost r ~start ~stop:(start + size) ~cap:max_int,
               start ))
  |> List.sort compare

let gaps fi = Helpers.(collect (iter2 (Free_index.iter_gaps fi)))
let live h = Helpers.collect (Heap.iter_live h)

let apply_op h r = function
  | At_frontier size ->
      let addr = Free_index.frontier (Heap.free_index h) in
      ignore (Heap.alloc h ~addr ~size);
      ignore (Heap_ref.alloc r ~addr ~size)
  | In_gap (g, size) -> (
      match gaps (Heap.free_index h) with
      | [] -> ()
      | gaps ->
          let gs, gl = List.nth gaps (g mod List.length gaps) in
          let size = min size gl in
          let addr = gs + (g mod (gl - size + 1)) in
          ignore (Heap.alloc h ~addr ~size);
          ignore (Heap_ref.alloc r ~addr ~size))
  | Past_frontier (d, size) ->
      let addr = Free_index.frontier (Heap.free_index h) + d in
      ignore (Heap.alloc h ~addr ~size);
      ignore (Heap_ref.alloc r ~addr ~size)
  | Free_any i -> (
      match live h with
      | [] -> ()
      | live ->
          let o = List.nth live (i mod List.length live) in
          Heap.free h o.oid;
          Heap_ref.free r o.oid)
  | Free_tail -> (
      match List.rev (live h) with
      | [] -> ()
      | o :: _ ->
          Heap.free h o.oid;
          Heap_ref.free r o.oid)
  | Move (i, d) -> (
      match live h with
      | [] -> ()
      | live ->
          let o = List.nth live (i mod List.length live) in
          let fi = Heap.free_index h in
          (* into a gap that holds it, else onto the tail *)
          let dst =
            match
              List.filter (fun (_, gl) -> gl >= o.size) (gaps fi)
            with
            | [] -> Free_index.frontier fi + (d mod 8)
            | fits -> fst (List.nth fits (d mod List.length fits))
          in
          Heap.move h o.oid ~dst;
          Heap_ref.move r o.oid ~dst)

let prop_scan_cache_exact =
  QCheck.Test.make ~name:"kept window scan equals a fresh scan" ~count:300
    QCheck.(
      make
        ~print:(fun (k, ops) ->
          Fmt.str "align 2^%d, %a" k Fmt.(Dump.list pp_op) ops)
        Gen.(pair (int_range 2 5) (list_size (int_range 1 80) op_gen)))
    (fun (k, ops) ->
      let size = 1 lsl k in
      let ctx = Ctx.create ~live_bound:65536 () in
      let evict = Evict.create () in
      let h = Ctx.heap ctx and r = Heap_ref.create () in
      List.for_all
        (fun op ->
          apply_op h r op;
          (* the window size under test, and now and then another, so
             the kept scan is also replaced mid-epoch *)
          List.for_all
            (fun (size, align) ->
              let kept =
                Evict.window_candidates evict ctx ~size ~align
                |> List.map (fun (c : Evict.candidate) ->
                       (c.cost, c.window_start))
              in
              kept = fresh_candidates r ~size ~align)
            (if Heap.allocated_total h mod 5 = 0 then
               [ (size, size); (2 * size, size) ]
             else [ (size, size) ]))
        ops)

let () =
  Alcotest.run "evict"
    [
      ( "unit",
        [
          Alcotest.test_case "window cost" `Quick test_window_cost;
          Alcotest.test_case "candidate order" `Quick
            test_window_candidates_order;
          Alcotest.test_case "relocation avoids window" `Quick
            test_relocate_avoids_window;
          Alcotest.test_case "budget respected" `Quick
            test_try_evict_respects_budget;
          Alcotest.test_case "move cap" `Quick test_try_evict_move_cap;
          Alcotest.test_case "straddler moved whole" `Quick
            test_try_evict_straddler;
        ] );
      ( "page managers",
        [
          Alcotest.test_case "meshing merge cost" `Quick
            test_meshing_merge_charges_window_cost;
          Alcotest.test_case "compact-fit plug cost" `Quick
            test_compact_fit_plug_charges_window_cost;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_scan_cache_exact ] );
    ]
