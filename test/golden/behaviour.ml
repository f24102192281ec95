(* Behaviour lock: one row per registry manager x workload at M = 2^12,
   pinning the run's outcome and an MD5 of its full event stream (the
   Trace wire serialisation). Any change to placement, compaction or
   emission order moves a digest; `dune runtest` diffs the output
   against behaviour.golden.

   Columns: manager, workload, hs, allocated, moved, freed, final_live,
   compliant, md5(Trace.to_string). A run that raises prints the
   exception in place of the outcome. *)

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

let row key (name, c, program) =
  let trace = Trace.create () in
  let manager = Recording.manager trace (Managers.construct_exn key) in
  match Runner.run ?c ~program:(program ()) ~manager () with
  | o ->
      Printf.printf "%s %s hs=%d allocated=%d moved=%d freed=%d live=%d \
                     compliant=%b md5=%s\n"
        key name o.hs o.allocated o.moved o.freed o.final_live o.compliant
        (Digest.to_hex (Digest.string (Trace.to_string trace)))
  | exception e ->
      Printf.printf "%s %s raised %s\n" key name (Printexc.to_string e)

let () =
  List.iter
    (fun key -> List.iter (row key) workloads)
    (Managers.keys ())
