(* The untraced simulation workloads (pf-compact, robson-fit): whole
   passes over the job list through [Engine.run ~jobs:1], each with a
   fresh cache and journal, repeated until the run's time is spent.

   A job's time is the fastest of its runs in the timed phase, and
   wall_s is the fastest pass: the host's other tenants slow this
   machine's cores by up to a third for tens of seconds at a time, and
   the fastest run is the one they disturbed least. jobs_per_s is the
   fastest pass's throughput. *)

module Engine = Pc_core.Pc.Exec.Engine
module Spec = Pc_core.Pc.Exec.Spec

(* Set-up: a fresh cache and journal plus one toy-scale pass over the
   same managers, which is also the warm-up. *)
let setup ~pins ~tally warm =
  snd (Util.timed (fun () -> ignore (Layers.engine_pass ~pins ~tally warm)))

let run ~pins ~tally ~seconds ~setups specs ~warm =
  let setup_s = List.init setups (fun _ -> setup ~pins ~tally warm) in
  let passes =
    Util.repeat_for ~seconds ~min:3 (fun () -> Layers.engine_pass ~pins ~tally specs)
  in
  let fastest, wall =
    List.fold_left (fun b p -> if snd p < snd b then p else b) (List.hd passes) passes
  in
  let runs = List.concat_map fst passes in
  let best = Hashtbl.create 16 in
  List.iter
    (fun (r : Engine.job_result) ->
      let key = Spec.digest r.spec in
      match Hashtbl.find_opt best key with
      | Some t when t <= r.elapsed -> ()
      | _ -> Hashtbl.replace best key r.elapsed)
    runs;
  let latencies = Hashtbl.fold (fun _ t acc -> 1e3 *. t :: acc) best [] in
  [
    ("setup_s", "s", Util.median setup_s);
    ("wall_s", "s", wall);
    ("jobs_per_s", "1/s", float_of_int (List.length fastest) /. wall);
    ("latency_ms_p50", "ms", Util.percentile latencies 0.5);
    ("latency_ms_p90", "ms", Util.percentile latencies 0.9);
  ]
