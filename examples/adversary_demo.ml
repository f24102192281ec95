(* Adversary demo: the paper's bad programs running against real
   managers, at laptop scale. Shows (1) Robson's P_R forcing the
   matching bound out of every non-moving policy, and (2) Cohen &
   Petrank's P_F forcing a large heap out of budget-limited
   compactors, where unlimited compaction stays at 1x. Run with:

     dune exec examples/adversary_demo.exe
*)

open Pc_core
module Spec = Pc.Exec.Spec

let () =
  let m = 1 lsl 12 and n = 1 lsl 6 in
  Fmt.pr "=== Robson's P_R vs non-moving managers (M=2^12, n=2^6) ===@.";
  Fmt.pr "theory: every non-moving manager needs HS/M >= %.3f@.@."
    (Pc.Bounds.Robson.waste_factor_pow2 ~m ~n);
  List.iter
    (fun key ->
      let o = Spec.run (Spec.robson ~manager:key ~m ~n ()) in
      Fmt.pr "  %-12s HS/M = %.3f@." key o.hs_over_m)
    [ "first-fit"; "next-fit"; "best-fit"; "worst-fit"; "aligned-fit";
      "buddy"; "segregated" ];

  let m = 1 lsl 16 and n = 1 lsl 8 in
  Fmt.pr "@.=== Cohen-Petrank's P_F vs compacting managers (M=2^16, n=2^8) ===@.";
  List.iter
    (fun c ->
      let o = Spec.run (Spec.pf ~c ~manager:"compacting" ~m ~n ()) in
      Fmt.pr
        "  c=%-3g  ell=%d  measured HS/M = %.3f   moved %a words \
         (budget-compliant: %b)@."
        c (Pc.Pf.config ~m ~n ~c ()).ell o.hs_over_m Pc.Word.pp_count o.moved
        o.compliant)
    [ 4.0; 8.0; 16.0; 32.0 ];

  (* The same adversary against unlimited compaction: fragmentation
     vanishes, confirming it is the budget that hurts, not the
     workload. *)
  let cfg, program = Pc.Pf.program ~m ~n ~c:8.0 () in
  let bp = Pc.Managers.construct_exn "bp-simple" in
  let o = Pc.Runner.run ~c:8.0 ~program ~manager:bp () in
  Fmt.pr
    "@.P_F (l=%d) vs bp-simple (the (c+1)M manager, c=8): HS/M = %.3f <= %g@."
    cfg.ell o.hs_over_m
    (Pc.Bounds.Bendersky_petrank.upper_bound ~m ~c:8.0 /. float_of_int m)
