open Pc_adversary

(* Robson's adversary and the occupying-offset machinery. The headline
   check: against every non-moving manager the measured heap matches
   or exceeds Robson's bound M*(1/2*log n + 1) - n + 1, and first fit
   achieves it exactly. *)

let test_occupying () =
  (* step 3: modulus 8, f = 5: object covers a word = 5 mod 8? *)
  let check name expect ~addr ~size f =
    Alcotest.(check bool)
      name expect
      (Robson_steps.occupies ~f ~step:3 addr size)
  in
  check "covers its own word" true ~addr:5 ~size:1 5;
  check "misses" false ~addr:6 ~size:1 5;
  check "crosses residue" true ~addr:3 ~size:4 5;
  check "stops short" false ~addr:3 ~size:2 5;
  check "next period" true ~addr:12 ~size:2 5;
  check "large always occupies" true ~addr:0 ~size:8 5;
  check "wraps below" true ~addr:20 ~size:2 5
(* addr 20: next 5 mod 8 word is 21 < 22 *)

let test_wasted_space_objective () =
  (* One pinned 1-word object at the offset of each 8-word chunk gives
     objective (8-1) per chunk. *)
  let ctx = Pc_manager.Ctx.create ~live_bound:1024 () in
  let driver = Driver.create ctx Pc_manager.First_fit.manager in
  let view = View.create driver in
  let r1 = View.alloc view ~size:1 in
  (* placed at 0 *)
  let r2 = View.alloc view ~size:2 in
  (* placed at 1..2 *)
  ignore r1;
  ignore r2;
  (* f=0 captures r1 only: (8-1); f=1 captures r2 only: (8-2) *)
  Alcotest.(check int) "objective f=0" 7 (Robson_steps.wasted_space view ~f:0 ~step:3);
  Alcotest.(check int) "objective f=1" 6 (Robson_steps.wasted_space view ~f:1 ~step:3)

let robson_bound ~m ~n = Pc_bounds.Robson.lower_bound_pow2 ~m ~n

let test_first_fit_matches_bound_exactly () =
  (* Against first fit the adversary achieves Robson's bound exactly —
     the matching upper/lower pair — at several scales. *)
  List.iter
    (fun (m_log, n_log) ->
      let m = 1 lsl m_log and n = 1 lsl n_log in
      let program = Robson_pr.program ~m ~n () in
      let o = Runner.run ~program ~manager:Pc_manager.First_fit.manager () in
      let bound = robson_bound ~m ~n in
      Alcotest.(check (float 0.5))
        (Fmt.str "M=2^%d n=2^%d" m_log n_log)
        bound (float_of_int o.hs))
    [ (8, 2); (10, 4); (12, 6) ]

let test_all_non_moving_at_least_bound () =
  let m = 1 lsl 10 and n = 1 lsl 4 in
  let bound = robson_bound ~m ~n in
  List.iter
    (fun (e : Pc_manager.Registry.entry) ->
      if not e.moving then begin
        let program = Robson_pr.program ~m ~n () in
        let o = Runner.run ~program ~manager:(e.construct ()) () in
        Alcotest.(check bool)
          (e.key ^ " >= Robson bound") true
          (float_of_int o.hs >= bound -. 1e-9)
      end)
    (Pc_manager.Registry.entries ())

let test_unlimited_compaction_defeats_pr () =
  (* With unlimited compaction the heap stays near M: the adversary
     only hurts non-moving (or budget-limited) managers. *)
  let m = 1 lsl 10 and n = 1 lsl 4 in
  let program = Robson_pr.program ~m ~n () in
  let o =
    Runner.run ~program ~manager:(Pc_manager.Compacting.make ()) ()
  in
  Alcotest.(check bool)
    (Fmt.str "HS/M %.3f close to 1" o.hs_over_m)
    true (o.hs_over_m < 1.2);
  (* the 2M bump-and-compact manager also stays within its arena *)
  let program = Robson_pr.program ~m ~n () in
  let o2 =
    Runner.run ~program ~manager:(Pc_manager.Bp_simple.make ()) ()
  in
  Alcotest.(check bool)
    (Fmt.str "bp-simple %.3f within 2M" o2.hs_over_m)
    true (o2.hs_over_m <= 2.0)

let test_budgeted_compaction_compliance () =
  (* Against a c-partial compactor, PR still runs fine (ghost
     handling) and the budget is respected. *)
  let m = 1 lsl 10 and n = 1 lsl 4 in
  let program = Robson_pr.program ~m ~n () in
  let o =
    Runner.run ~c:8.0 ~program ~manager:(Pc_manager.Compacting.make ()) ()
  in
  Alcotest.(check bool) "compliant" true o.compliant;
  Alcotest.(check bool) "live never exceeded M" true (o.final_live <= m)

let test_claim_4_9_occupying_floor () =
  (* Claim 4.9: after step i there are at least M*(i+2)/2^(i+1)
     f_i-occupying objects, whatever the manager does. *)
  List.iter
    (fun (manager_key, c) ->
      let m = 1 lsl 10 and n = 1 lsl 5 in
      let floor_violation = ref None in
      let program =
        Program.make ~name:"pr-instrumented" ~live_bound:m ~max_size:n
          (fun driver ->
            let view = View.create driver in
            let observe ~step ~f =
              let count = Robson_steps.occupying_count view ~f ~step in
              let floor = m * (step + 2) / (1 lsl (step + 1)) in
              if count < floor then
                floor_violation := Some (step, count, floor)
            in
            ignore (Robson_steps.run ~observe view ~m ~steps:5 : int))
      in
      let manager = Pc_manager.Registry.construct_exn manager_key in
      let _ =
        match c with
        | Some c -> Runner.run ~c ~program ~manager ()
        | None -> Runner.run ~program ~manager ()
      in
      match !floor_violation with
      | Some (step, count, floor) ->
          Alcotest.failf "%s: step %d has %d occupying < floor %d"
            manager_key step count floor
      | None -> ())
    [ ("first-fit", None); ("best-fit", None); ("compacting", Some 8.0) ]

let test_steps_parameter () =
  let m = 1 lsl 10 and n = 1 lsl 6 in
  (* a shallower run wastes less *)
  let run steps =
    let program = Robson_pr.program ~steps ~m ~n () in
    (Runner.run ~program ~manager:Pc_manager.First_fit.manager ()).hs
  in
  Alcotest.(check bool) "deeper wastes more" true (run 6 > run 3);
  Alcotest.check_raises "too many steps"
    (Invalid_argument "Robson_pr.program: steps out of range") (fun () ->
      ignore (Robson_pr.program ~steps:7 ~m ~n ()))

(* The bound grows with each step exactly as Robson's analysis says:
   going one step deeper adds ~M/2 (up to the -n+1 term). *)
let prop_bound_monotone_in_n =
  QCheck.Test.make ~name:"Robson bound weakly increases with n" ~count:20
    QCheck.(pair (int_range 6 14) (int_range 1 5))
    (fun (m_log, n_log) ->
      let m = 1 lsl m_log in
      QCheck.assume (n_log + 1 <= m_log);
      (* weak: the step gains M/2 but pays n; at n = m/2 they tie *)
      robson_bound ~m ~n:(1 lsl (n_log + 1)) >= robson_bound ~m ~n:(1 lsl n_log))

let () =
  Alcotest.run "robson"
    [
      ( "machinery",
        [
          Alcotest.test_case "occupying" `Quick test_occupying;
          Alcotest.test_case "wasted-space objective" `Quick
            test_wasted_space_objective;
          Alcotest.test_case "steps parameter" `Quick test_steps_parameter;
          Alcotest.test_case "Claim 4.9 occupying floor" `Quick
            test_claim_4_9_occupying_floor;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "first fit matches exactly" `Quick
            test_first_fit_matches_bound_exactly;
          Alcotest.test_case "all non-moving >= bound" `Quick
            test_all_non_moving_at_least_bound;
          Alcotest.test_case "unlimited compaction defeats PR" `Quick
            test_unlimited_compaction_defeats_pr;
          Alcotest.test_case "budgeted compaction compliant" `Quick
            test_budgeted_compaction_compliance;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_bound_monotone_in_n ] );
    ]
