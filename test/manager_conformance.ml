open Pc_heap
open Pc_manager
open Pc_adversary

(* The shared manager-conformance suite: one parameterised battery
   instantiated over every registry entry, so any manager added
   through [Registry.register] is tested by construction. Per entry:

   - live-word conservation and HS >= live words on the standard churn
     fixture, under the enforced c-partial budget;
   - budget-rule compliance cross-checked by the oracle layer at
     [Full] level (any violation triages a repro bundle and raises);
   - kernel vs reference: the run's recorded trace, stepped onto a
     fresh kernel heap and a fresh reference heap in lockstep, agrees
     event by event and reproduces the outcome;
   - replay fidelity: the recorded trace replays onto both the kernel
     and the reference to the same final heap.

   The meta suite pins the registry listing itself: the generated
   battery keys must equal [Registry.keys ()] exactly (completeness: a
   registered manager cannot lack conformance coverage), keys must be
   unique, and the zoo must hold the seventeen documented managers. *)

let c = 4.0

(* A churn fixture light enough to run the full battery over the whole
   zoo: sizes are powers of two up to 32, half the bound stays live. *)
let churn_program ~seed =
  Random_workload.program ~seed ~churn:600 ~m:1024
    ~dist:(Random_workload.Pow2 { lo_log = 0; hi_log = 5 })
    ~target_live:512 ()

let run ?(audit = Pc_audit.Oracle.Off) (e : Registry.entry) seed =
  Runner.run ~c ~audit
    ~failures_dir:(Helpers.fresh_dir ())
    ~program:(churn_program ~seed)
    ~manager:(e.construct ()) ()

let test_conservation (e : Registry.entry) () =
  List.iter
    (fun seed ->
      let o = run e seed in
      Alcotest.(check int)
        (Fmt.str "%s seed %d: allocated - freed = live" e.key seed)
        (o.allocated - o.freed) o.final_live;
      Alcotest.(check bool)
        (Fmt.str "%s seed %d: HS covers live words" e.key seed)
        true (o.hs >= o.final_live);
      Alcotest.(check bool)
        (Fmt.str "%s seed %d: budget-compliant" e.key seed)
        true o.compliant)
    [ Helpers.churn_seed; Helpers.alt_churn_seed ]

(* The runner's own [compliant] flag comes from the enforced budget;
   the oracle at [Full] level re-derives the c-partial rule (and the
   live bound, and the structural invariants) independently from the
   event stream, raising [Report.Reported] on any divergence. *)
let test_oracle_audit (e : Registry.entry) () =
  let o = run ~audit:Pc_audit.Oracle.Full e Helpers.churn_seed in
  Alcotest.(check bool) (e.key ^ " audited run compliant") true o.compliant

let test_backend_determinism (e : Registry.entry) () =
  let o, trace =
    Helpers.recorded_run ~c ~failures_dir:(Helpers.fresh_dir ())
      ~program:(churn_program ~seed:Helpers.churn_seed)
      e.key
  in
  Alcotest.check Helpers.outcome (e.key ^ " recording leaves the run alone")
    (run e Helpers.churn_seed) o;
  Helpers.check_replayed ~what:e.key o (Helpers.lockstep ~what:e.key trace)

(* Drive the churn by hand with a trace recorder attached, then replay
   the trace onto the kernel and onto the reference: the final heaps
   must agree with the original run word for word. *)
let test_trace_replay (e : Registry.entry) () =
  let program = churn_program ~seed:Helpers.churn_seed in
  let budget = Budget.create ~c in
  let ctx = Ctx.create ~budget ~live_bound:(Program.live_bound program) () in
  let heap = Ctx.heap ctx in
  let trace = Trace.create () in
  Trace.record trace heap;
  let driver = Driver.create ctx (e.construct ()) in
  Program.run program driver;
  Heap.check_invariants heap;
  let check (type h) name (module H : Heap_intf.HEAP with type t = h) =
    let r = H.create () in
    match Trace.replay_onto (module H) trace r with
    | Error msg ->
        Alcotest.failf "%s: replay onto %s rejected: %s" e.key name msg
    | Ok () ->
        H.check_invariants r;
        Alcotest.(check int)
          (Fmt.str "%s: replayed HS (%s)" e.key name)
          (Heap.high_water heap) (H.high_water r);
        Alcotest.(check int)
          (Fmt.str "%s: replayed live words (%s)" e.key name)
          (Heap.live_words heap) (H.live_words r);
        Alcotest.(check int)
          (Fmt.str "%s: replayed moved words (%s)" e.key name)
          (Heap.moved_total heap) (H.moved_total r)
  in
  check "kernel" (module Heap);
  check "reference" (module Heap_ref)

(* A manager's state lives for one execution: one instance serving PF
   and then the churn, twice over, gives each run the outcome a fresh
   instance gives it. *)
let test_two_executions (e : Registry.entry) () =
  let pf = ("pf", 8.0, fun () -> snd (Pf.program ~m:4096 ~n:64 ~c:8.0 ())) in
  let churn = ("churn", c, fun () -> churn_program ~seed:Helpers.churn_seed) in
  let run manager (_, c, program) =
    Runner.run ~c ~program:(program ()) ~manager ()
  in
  let shared = e.construct () in
  List.iter
    (fun ((what, _, _) as job) ->
      Alcotest.check Helpers.outcome
        (Fmt.str "%s: %s through a used instance" e.key what)
        (run (e.construct ()) job) (run shared job))
    [ pf; churn; pf; churn ]

let battery (e : Registry.entry) =
  ( e.key,
    [
      Alcotest.test_case "conservation + compliance" `Quick
        (test_conservation e);
      Alcotest.test_case "oracle full audit" `Quick (test_oracle_audit e);
      Alcotest.test_case "backend determinism" `Quick
        (test_backend_determinism e);
      Alcotest.test_case "trace replay" `Quick (test_trace_replay e);
      Alcotest.test_case "one instance serves two executions" `Quick
        (test_two_executions e);
    ] )

let batteries = List.map battery (Registry.entries ())

(* ------------------------------------------------------------------ *)
(* Registry completeness                                              *)

let test_registry_completeness () =
  let covered = List.map fst batteries in
  Alcotest.(check (list string))
    "every registry entry has a conformance battery" (Registry.keys ())
    covered;
  let sorted = List.sort_uniq compare covered in
  Alcotest.(check int)
    "registry keys are unique" (List.length covered) (List.length sorted);
  Alcotest.(check bool)
    "the zoo holds at least seventeen managers" true
    (List.length covered >= 17)

(* Churn seeds on which a failed eviction attempt once spent budget
   and the next candidate window was still checked against the cap
   read before it: the managers raised [Budget.Exceeded] instead of
   declining to compact. *)
let test_evict_rechecks_budget () =
  List.iter
    (fun key ->
      let e = Option.get (Registry.find key) in
      List.iter
        (fun seed ->
          let o = run e seed in
          Alcotest.(check bool)
            (Fmt.str "%s seed %d: budget-compliant" key seed)
            true o.compliant)
        [ 126; 541; 555 ])
    [ "compacting"; "improved-ac" ]

(* Conservation and compliance as a property over fresh seeds, zoo-wide. *)
let prop_conformance =
  QCheck.Test.make ~name:"zoo-wide churn conformance" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.for_all
        (fun (e : Registry.entry) ->
          let o = run e seed in
          o.compliant
          && o.allocated - o.freed = o.final_live
          && o.hs >= o.final_live)
        (Registry.entries ()))

let () =
  Alcotest.run "manager-conformance"
    (batteries
    @ [
        ( "registry",
          [
            Alcotest.test_case "completeness" `Quick
              test_registry_completeness;
          ] );
        ( "budget",
          [
            Alcotest.test_case "evict rechecks the budget per move" `Quick
              test_evict_rechecks_budget;
          ] );
        ("properties", [ QCheck_alcotest.to_alcotest prop_conformance ]);
      ])
