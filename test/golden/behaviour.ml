(* Behaviour lock: one row per registry manager x workload at M = 2^12,
   pinning the run's outcome and an MD5 of its full event stream (the
   Trace wire serialisation). Any change to placement, compaction or
   emission order moves a digest; `dune runtest` diffs the output
   against behaviour.golden.

   Columns: manager, workload, hs, allocated, moved, freed, final_live,
   compliant, md5(Trace.to_string). A run that raises prints the
   exception in place of the outcome.

   After the registry rows come the page-grid family at other sizes
   (segregated blocks of 64 words, pages of 16 to 256 words, two-slot
   buckets), where pages fill, retire and plug many times over at
   M = 2^12; the 32- and 256-word meshing rows mesh on churn.

   Last come P_F rows at M = 2^14, n = 2^9, c = 16, one per registry
   manager: four stage-2 steps, where the M = 2^12 rows run one, so the
   chunk association's merge order and density pass are pinned over
   several merges. *)

open Pc_core.Pc

let m = 1 lsl 12
let n = 1 lsl 6
let churn_seed = 11

let workloads =
  List.map
    (fun c ->
      ( Printf.sprintf "pf-c%g" c,
        Some c,
        fun () -> snd (Pf.program ~m ~n ~c ()) ))
    [ 8.0; 16.0; 32.0 ]
  @ [
      ("robson", None, fun () -> Robson_pr.program ~m ~n ());
      ( "churn",
        Some 8.0,
        fun () ->
          Random_workload.program ~seed:churn_seed ~churn:1_000 ~m
            ~dist:(Random_workload.Pow2 { lo_log = 0; hi_log = 6 })
            ~target_live:(m / 2) () );
      ("sawtooth", Some 8.0, fun () -> Sawtooth.program ~m ~n ());
      ("pw", Some 8.0, fun () -> Pw.program ~m ~n ());
    ]

let row_of key construct (name, c, program) =
  let trace = Trace.create () in
  let manager = Recording.manager trace (construct ()) in
  match Runner.run ?c ~program:(program ()) ~manager () with
  | o ->
      Printf.printf "%s %s hs=%d allocated=%d moved=%d freed=%d live=%d \
                     compliant=%b md5=%s\n"
        key name o.hs o.allocated o.moved o.freed o.final_live o.compliant
        (Digest.to_hex (Digest.string (Trace.to_string trace)))
  | exception e ->
      Printf.printf "%s %s raised %s\n" key name (Printexc.to_string e)

let small =
  let open Pc_manager in
  [
    ("segregated/b64", fun () -> Segregated.make ~block_words:64 ());
    ("compact-fit/p16", fun () -> Compact_fit.make ~page_words:16 ());
    ("meshing/p16", fun () -> Meshing.make ~page_words:16 ());
    ("meshing/p32", fun () -> Meshing.make ~page_words:32 ());
    ("meshing/p256", fun () -> Meshing.make ~page_words:256 ());
    ("cost-oblivious/i2", fun () -> Cost_oblivious.make ~init_slots:2 ());
  ]

let pf_steps =
  ( "pf-c16-m16K-n512",
    Some 16.0,
    fun () -> snd (Pf.program ~m:(1 lsl 14) ~n:(1 lsl 9) ~c:16.0 ()) )

let () =
  List.iter
    (fun key ->
      List.iter (row_of key (fun () -> Managers.construct_exn key)) workloads)
    (Managers.keys ());
  List.iter
    (fun (key, construct) -> List.iter (row_of key construct) workloads)
    small;
  List.iter
    (fun key -> row_of key (fun () -> Managers.construct_exn key) pf_steps)
    (Managers.keys ())
