(* Heap diagram: ASCII renderings in the spirit of the paper's
   Figures 4 and 5 — chunk partitions, objects pinned at offset words,
   and the checkerboard Robson's program carves out. Run with:

     dune exec examples/heap_diagram.exe
*)

open Pc_core

let render heap ~chunk =
  Pc.Layout.render
    ~config:
      { Pc.Layout.words_per_cell = 1; cells_per_row = 64; chunk_words = Some chunk }
    heap

let () =
  (* Figure 4's situation: chunks of 8 words at density 1/4, objects
     straddling chunk borders. *)
  let ctx = Pc.Ctx.create ~live_bound:64 () in
  let heap = Pc.Ctx.heap ctx in
  let o1 = Pc.Heap.alloc heap ~addr:2 ~size:2 in
  let _o2 = Pc.Heap.alloc heap ~addr:6 ~size:4 in
  let _o3 = Pc.Heap.alloc heap ~addr:17 ~size:4 in
  ignore (Pc.Heap.alloc heap ~addr:30 ~size:2 : Pc.Oid.t);
  Fmt.pr "Figure 4 style: chunks of 8 ('|'), objects at density >= 1/4@.";
  Fmt.pr "%s@.@." (render heap ~chunk:8);
  Fmt.pr "O1 freed (density still 1/4 without it):@.";
  Pc.Heap.free heap o1;
  Fmt.pr "%s@.@." (render heap ~chunk:8);

  (* Robson's checkerboard: run P_R at toy scale against first fit and
     draw the heap after each step. *)
  Fmt.pr "Robson's P_R vs first-fit (M=256, n=16): final heap@.";
  let o = Pc.Exec.Spec.(run (robson ~manager:"first-fit" ~m:256 ~n:16 ())) in
  Fmt.pr "HS/M = %.3f (Robson bound %.3f)@." o.hs_over_m
    (Pc.Bounds.Robson.waste_factor_pow2 ~m:256 ~n:16);
  (* Re-run capturing the heap for rendering. *)
  let manager = Pc.Managers.construct_exn "first-fit" in
  let program = Pc.Robson_pr.program ~m:256 ~n:16 () in
  let ctx = Pc.Ctx.create ~live_bound:256 () in
  let driver = Pc.Driver.create ctx manager in
  Pc.Program.run program driver;
  Fmt.pr "%s@." (render (Pc.Ctx.heap ctx) ~chunk:16)
