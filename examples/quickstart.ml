(* Quickstart: the heap model in five minutes.

   Builds a small heap, drives a first-fit manager by hand, shows how
   fragmentation arises, and compares two closed-form bounds. Run with:

     dune exec examples/quickstart.exe
*)

open Pc_core

let () =
  (* A context bundles a heap with a compaction budget. M is the
     program's live-space bound; this one never compacts. *)
  let ctx = Pc.Ctx.create ~live_bound:64 () in
  let heap = Pc.Ctx.heap ctx in
  let manager = Pc.Managers.construct_exn "first-fit" in

  (* Allocate eight 8-word objects... *)
  let oids =
    List.init 8 (fun _ ->
        let addr = Pc.Manager.alloc manager ctx ~size:8 in
        Pc.Heap.alloc heap ~addr ~size:8)
  in
  Fmt.pr "after 8 allocations of 8 words:@.%s@."
    (Pc.Layout.render
       ~config:{ Pc.Layout.default_config with cells_per_row = 80 }
       heap);

  (* ... free every second one: classic checkerboard fragmentation. *)
  List.iteri (fun i oid -> if i mod 2 = 0 then Pc.Heap.free heap oid) oids;
  Fmt.pr "after freeing every second object:@.%s@."
    (Pc.Layout.render
       ~config:{ Pc.Layout.default_config with cells_per_row = 80 }
       heap);

  (* A 16-word request no longer fits below the high-water mark, even
     though 32 words are free: *)
  let addr = Pc.Manager.alloc manager ctx ~size:16 in
  let _oid = Pc.Heap.alloc heap ~addr ~size:16 in
  let snap = Pc.Metrics.snapshot heap in
  Fmt.pr "a 16-word object went to address %d; %a@.@." addr Pc.Metrics.pp snap;

  (* The paper quantifies how bad this can get. Robson: without
     compaction, a worst-case program with M = 256MB, n = 1MB forces a
     ~11x heap. Cohen-Petrank Theorem 1: even moving 1%% of all
     allocated words, 3.5x is unavoidable. *)
  let m = 256 * Pc.Bounds.Params.mb and n = Pc.Bounds.Params.mb in
  Fmt.pr "Robson (no compaction):   HS >= %.2f x M@."
    (Pc.Bounds.Robson.waste_factor_pow2 ~m ~n);
  Fmt.pr "Theorem 1 (c = 100):      HS >= %.2f x M@."
    (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c:100.0);
  Fmt.pr "Theorem 1 (c = 10):       HS >= %.2f x M@."
    (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c:10.0);

  (* And the adversary that proves it, at laptop scale: *)
  let m = 1 lsl 14 and n = 1 lsl 7 in
  let o = Pc.Exec.Spec.(run (pf ~c:8.0 ~manager:"compacting" ~m ~n ())) in
  Fmt.pr "@.PF vs compacting manager (M=2^14, n=2^7, c=8):@.";
  Fmt.pr "  measured HS/M = %.3f   (theory floor at this scale: %.3f)@."
    o.hs_over_m (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c:8.0)
