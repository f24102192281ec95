open Pc_heap
module Oracle = Pc_audit.Oracle
module Shrink = Pc_audit.Shrink
module Report = Pc_audit.Report

(* A scratch directory for repro bundles, fresh per test run. *)
let tmp_failures =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pc_audit_test_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let violation_of f =
  match f () with
  | _ -> Alcotest.fail "expected an oracle violation"
  | exception Oracle.Violation v -> v

let reported_of f =
  match f () with
  | _ -> Alcotest.fail "expected Report.Reported"
  | exception Report.Reported b -> b

(* ------------------------------------------------------------------ *)
(* Oracle units                                                       *)

let test_budget_trip () =
  let h = Heap.create () in
  let o = Oracle.attach ~sample_every:1 ~c:4.0 h in
  let a = Heap.alloc h ~addr:0 ~size:8 in
  (* quota = floor(8 / 4) = 2; an 8-word move must trip *)
  let v = violation_of (fun () -> Heap.move h a ~dst:16) in
  Alcotest.(check string) "oracle" "budget" v.oracle;
  Alcotest.(check int) "seq is the violating event" 2 v.seq;
  ignore (Oracle.seq o)

(* A heap made by [Ctx.create ~budget] with the oracle auditing the same
   c: the over-budget move reaches the oracle before the kernel charges
   the budget, so the oracle reports it and [Budget.Exceeded] does
   not. *)
let test_oracle_sees_move_before_budget () =
  let budget = Budget.create ~c:4.0 in
  let ctx = Pc_manager.Ctx.create ~budget ~live_bound:64 () in
  let h = Pc_manager.Ctx.heap ctx in
  let _ = Oracle.attach ~sample_every:1 ~c:4.0 h in
  let a = Heap.alloc h ~addr:0 ~size:8 in
  let v =
    match Heap.move h a ~dst:16 with
    | () -> Alcotest.fail "expected an oracle violation"
    | exception Oracle.Violation v -> v
    | exception Budget.Exceeded _ ->
        Alcotest.fail "Budget.Exceeded raised before the oracle saw the move"
  in
  Alcotest.(check string) "oracle" "budget" v.oracle;
  Alcotest.(check int) "budget not charged" 0 (Budget.moved budget)

let test_live_bound_trip () =
  let h = Heap.create () in
  let _ = Oracle.attach ~sample_every:1 ~live_bound:8 h in
  let _ = Heap.alloc h ~addr:0 ~size:4 in
  let v = violation_of (fun () -> Heap.alloc h ~addr:8 ~size:8) in
  Alcotest.(check string) "oracle" "live-bound" v.oracle

let test_only_filter () =
  let h = Heap.create () in
  (* with the budget oracle filtered out, the same move is clean *)
  let o = Oracle.attach ~sample_every:1 ~c:4.0 ~only:"live-bound" h in
  let a = Heap.alloc h ~addr:0 ~size:8 in
  Heap.move h a ~dst:16;
  Oracle.finish o

let test_off_is_inert () =
  let h = Heap.create () in
  let o = Oracle.attach ~level:Oracle.Off ~sample_every:1 ~c:4.0 ~live_bound:1 h in
  let a = Heap.alloc h ~addr:0 ~size:8 in
  Heap.move h a ~dst:16;
  Oracle.finish ~theory_h:100.0 o

let test_theory_floor () =
  let h = Heap.create () in
  let o = Oracle.attach ~sample_every:1 ~live_bound:64 h in
  let _ = Heap.alloc h ~addr:0 ~size:8 in
  (* HS/M = 8/64 is nowhere near h = 3 *)
  let v = violation_of (fun () -> Oracle.finish ~theory_h:3.0 o) in
  Alcotest.(check string) "oracle" "theory" v.oracle;
  (* a vacuous floor (h <= 1) is never asserted *)
  let h2 = Heap.create () in
  let o2 = Oracle.attach ~sample_every:1 ~live_bound:64 h2 in
  let _ = Heap.alloc h2 ~addr:0 ~size:8 in
  Oracle.finish ~theory_h:1.0 o2

let test_divergence_clean () =
  let h = Heap.create () in
  let o = Oracle.attach ~level:Oracle.Differential ~sample_every:1 h in
  let a = Heap.alloc h ~addr:0 ~size:4 in
  let b = Heap.alloc h ~addr:8 ~size:4 in
  Heap.move h a ~dst:16;
  Heap.free h b;
  Oracle.finish o;
  Alcotest.(check int) "all events seen" 4 (Oracle.seq o)

let test_attach_validation () =
  let h = Heap.create () in
  Alcotest.check_raises "sample_every > 0"
    (Invalid_argument "Oracle.attach: sample_every must be > 0") (fun () ->
      ignore (Oracle.attach ~sample_every:0 h));
  Alcotest.check_raises "c > 1" (Invalid_argument "Oracle.attach: need c > 1")
    (fun () -> ignore (Oracle.attach ~c:1.0 h))

(* ------------------------------------------------------------------ *)
(* The injected-bug drill: a manager whose budget debit is broken      *)

let drill () =
  let mgr = Pc_manager.Registry.construct_exn "compacting" in
  let _, program =
    Pc_adversary.Pf.program ~m:(1 lsl 12) ~n:(1 lsl 6) ~c:8.0 ()
  in
  (* no enforced budget (the "broken debit"), but the oracle audits the
     declared c = 8 *)
  reported_of (fun () ->
      Pc_adversary.Runner.run ~audit:Oracle.Sampled ~audit_c:8.0
        ~failures_dir:tmp_failures ~program ~manager:mgr ())

let test_drill_trips_budget () =
  let b = drill () in
  Alcotest.(check string) "oracle" "budget" b.Report.violation.Oracle.oracle;
  Alcotest.(check bool) "bundle dir exists" true
    (Sys.file_exists b.Report.dir && Sys.is_directory b.Report.dir);
  Alcotest.(check bool)
    (Fmt.str "minimized to <= 50 events (got %d)" b.Report.events_min)
    true
    (b.Report.events_min <= 50);
  Alcotest.(check bool) "minimized is no larger than recorded" true
    (b.Report.events_min <= b.Report.events_full)

let test_drill_bundle_replays () =
  let b = drill () in
  (match Report.replay b.Report.dir with
  | Ok (Some v) ->
      Alcotest.(check string) "same oracle" "budget" v.Oracle.oracle
  | Ok None -> Alcotest.fail "bundle did not reproduce"
  | Error msg -> Alcotest.fail msg);
  (* the budget rule does not depend on the kernel: the minimized trace
     replays onto the reference without rejection and breaks the same
     rule there, moved > floor(allocated / c) *)
  match Report.load b.Report.dir with
  | Error msg -> Alcotest.fail msg
  | Ok (bundle, trace) -> (
      let c = Option.get bundle.Report.info.c in
      let r = Heap_ref.create () in
      let broken = ref false in
      Heap_ref.on_event r (fun _ ->
          let quota =
            int_of_float (float_of_int (Heap_ref.allocated_total r) /. c)
          in
          if Heap_ref.moved_total r > quota then broken := true);
      match Trace.replay_onto (module Heap_ref) trace r with
      | Error msg -> Alcotest.failf "reference rejects the trace: %s" msg
      | Ok () ->
          Alcotest.(check bool) "reproduces on reference" true !broken)

let test_drill_deterministic () =
  let b1 = drill () in
  let b2 = drill () in
  (* content-addressed: the same failure converges on the same bundle *)
  Alcotest.(check string) "same bundle dir" b1.Report.dir b2.Report.dir;
  Alcotest.(check int) "same minimized size" b1.Report.events_min
    b2.Report.events_min

let test_differential_run_matches_plain () =
  let point audit =
    let mgr = Pc_manager.Registry.construct_exn "compacting" in
    let _, program =
      Pc_adversary.Pf.program ~m:(1 lsl 11) ~n:(1 lsl 5) ~c:8.0 ()
    in
    Pc_adversary.Runner.run ~c:8.0 ~audit ~failures_dir:tmp_failures ~program
      ~manager:mgr ()
  in
  let plain = point Oracle.Off in
  let diff = point Oracle.Differential in
  Alcotest.(check int) "hs agrees" plain.hs diff.hs;
  Alcotest.(check int) "moved agrees" plain.moved diff.moved;
  Alcotest.(check int) "allocated agrees" plain.allocated diff.allocated

(* The reference shadow feeds no telemetry: at [Differential] every
   kernel counter reads as it does at [Off]. *)
let test_differential_counters () =
  let module T = Pc_telemetry in
  let point audit =
    T.Registry.set_level T.Sink.Summary;
    T.Registry.reset ();
    Fun.protect ~finally:(fun () -> T.Registry.set_level T.Sink.Off)
    @@ fun () ->
    let mgr = Pc_manager.Registry.construct_exn "compacting" in
    let _, program =
      Pc_adversary.Pf.program ~m:(1 lsl 12) ~n:(1 lsl 6) ~c:8.0 ()
    in
    let o =
      Pc_adversary.Runner.run ~c:8.0 ~audit ~failures_dir:tmp_failures
        ~program ~manager:mgr ()
    in
    let kernel (name, _) =
      String.starts_with ~prefix:"heap." name
      || String.starts_with ~prefix:"free_index." name
    in
    (o, List.filter kernel (T.Registry.snapshot ()).counters)
  in
  let o, off = point Oracle.Off in
  let _, diff = point Oracle.Differential in
  Alcotest.(check (list (pair string int))) "kernel counters" off diff;
  Alcotest.(check (option int))
    "heap.alloc_words = allocated" (Some o.allocated)
    (List.assoc_opt "heap.alloc_words" diff)

let test_theory_violation_ships_unshrunk () =
  let mgr = Pc_manager.Registry.construct_exn "first-fit" in
  let program =
    Pc_adversary.Script.program
      (Pc_adversary.Script.parse "a x 4; a y 4; f x")
  in
  let b =
    reported_of (fun () ->
        Pc_adversary.Runner.run ~audit:Oracle.Sampled ~theory_h:5.0
          ~failures_dir:tmp_failures ~program ~manager:mgr ())
  in
  Alcotest.(check string) "oracle" "theory" b.Report.violation.Oracle.oracle;
  Alcotest.(check int) "not shrunk" b.Report.events_full b.Report.events_min

let test_load_rejects_garbage () =
  (match Report.load "/nonexistent/bundle" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
      Alcotest.(check bool) "mentions the path" true
        (String.length msg > 0));
  match Report.load (Filename.get_temp_dir_name ()) with
  | Ok _ -> Alcotest.fail "expected an error (no meta.txt)"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Shrinker properties                                                *)

(* A family of traces that always violate the budget oracle at c = 4:
   [k] one-word allocs at spaced addresses, an optional free, then a
   64-word alloc that is immediately moved — moved 64 > quota
   (k + 64 + eps)/4 for every k < 192. *)
let violating_trace seed =
  let st = Random.State.make [| seed |] in
  let k = Random.State.int st 30 in
  let h = Heap.create () in
  let t = Trace.create () in
  Trace.record t h;
  let small = ref [] in
  for i = 0 to k - 1 do
    small := Heap.alloc h ~addr:(i * 16) ~size:1 :: !small
  done;
  (match !small with
  | oid :: _ when Random.State.bool st -> Heap.free h oid
  | _ -> ());
  let big = Heap.alloc h ~addr:4096 ~size:64 in
  Heap.move h big ~dst:8192;
  t

let budget_info =
  {
    Report.program = "qcheck";
    manager = "scripted";
    m = 1 lsl 20;
    n = 64;
    c = Some 4.0;
    theory_h = None;
  }

let budget_predicate trace =
  match Report.reproduces ~only:"budget" ~info:budget_info trace with
  | Some v -> String.equal v.Oracle.oracle "budget"
  | None -> false

let sub_traces trace =
  let events =
    List.map (fun (e : Trace.entry) -> e.event) (Trace.entries trace)
  in
  List.mapi
    (fun i _ ->
      Trace.of_events (List.filteri (fun j _ -> j <> i) events))
    events

let prop_shrunk_still_trips =
  QCheck.Test.make ~name:"shrunk trace still trips the same oracle" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let t = violating_trace seed in
      QCheck.assume (budget_predicate t);
      budget_predicate (Shrink.ddmin ~predicate:budget_predicate t))

let prop_one_minimal =
  QCheck.Test.make ~name:"ddmin result is 1-minimal" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let t = violating_trace seed in
      QCheck.assume (budget_predicate t);
      let shrunk = Shrink.ddmin ~predicate:budget_predicate t in
      List.for_all (fun s -> not (budget_predicate s)) (sub_traces shrunk))

let prop_deterministic =
  QCheck.Test.make ~name:"shrinking is deterministic" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let t = violating_trace seed in
      QCheck.assume (budget_predicate t);
      let s1 = Shrink.ddmin ~predicate:budget_predicate t in
      let s2 = Shrink.ddmin ~predicate:budget_predicate t in
      String.equal (Trace.to_string s1) (Trace.to_string s2))

let test_ddmin_rejects_clean_trace () =
  let h = Heap.create () in
  let t = Trace.create () in
  Trace.record t h;
  ignore (Heap.alloc h ~addr:0 ~size:1 : Oid.t);
  match Shrink.ddmin ~predicate:budget_predicate t with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_ddmin_respects_max_tests () =
  let t = violating_trace 7 in
  let tests = ref 0 in
  let predicate tr =
    incr tests;
    budget_predicate tr
  in
  let shrunk = Shrink.ddmin ~max_tests:3 ~predicate t in
  Alcotest.(check bool) "budget respected (3 + the input check)" true
    (!tests <= 4);
  Alcotest.(check bool) "result still trips" true (budget_predicate shrunk)

let () =
  Alcotest.run "audit"
    [
      ( "oracle",
        [
          Alcotest.test_case "budget trips" `Quick test_budget_trip;
          Alcotest.test_case "oracle sees a move before the budget" `Quick
            test_oracle_sees_move_before_budget;
          Alcotest.test_case "live-bound trips" `Quick test_live_bound_trip;
          Alcotest.test_case "only filter" `Quick test_only_filter;
          Alcotest.test_case "off is inert" `Quick test_off_is_inert;
          Alcotest.test_case "theory floor" `Quick test_theory_floor;
          Alcotest.test_case "divergence clean" `Quick test_divergence_clean;
          Alcotest.test_case "attach validation" `Quick test_attach_validation;
          Alcotest.test_case "differential leaves kernel counters alone"
            `Quick test_differential_counters;
        ] );
      ( "triage",
        [
          Alcotest.test_case "drill trips budget" `Quick
            test_drill_trips_budget;
          Alcotest.test_case "drill bundle replays" `Quick
            test_drill_bundle_replays;
          Alcotest.test_case "drill deterministic" `Quick
            test_drill_deterministic;
          Alcotest.test_case "differential matches plain" `Quick
            test_differential_run_matches_plain;
          Alcotest.test_case "theory ships unshrunk" `Quick
            test_theory_violation_ships_unshrunk;
          Alcotest.test_case "load rejects garbage" `Quick
            test_load_rejects_garbage;
        ] );
      ( "shrink",
        [
          QCheck_alcotest.to_alcotest prop_shrunk_still_trips;
          QCheck_alcotest.to_alcotest prop_one_minimal;
          QCheck_alcotest.to_alcotest prop_deterministic;
          Alcotest.test_case "rejects clean trace" `Quick
            test_ddmin_rejects_clean_trace;
          Alcotest.test_case "max_tests" `Quick test_ddmin_respects_max_tests;
        ] );
    ]
