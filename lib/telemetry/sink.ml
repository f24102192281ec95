(* The process-wide telemetry switch. Instruments are cheap mutable
   cells guarded by [active]: when telemetry is off an instrument
   operation is one ref load and an untaken branch, so instrumented hot
   paths (every heap event, every gap search) stay measurably free —
   the ≤1% budget on sim-lower-point-c16 (EXPERIMENTS.md).

   [Summary] turns on the aggregate instruments (counters, gauges,
   spans, low-rate histograms); [Full] additionally enables the
   per-event instruments (allocation-size histograms, the HS/M
   trajectory sampler) that callers gate on [full_active]. Telemetry
   never influences a simulation's control flow: with any level,
   results are bit-identical to [Off] (pinned by a QCheck property in
   test_telemetry.ml). *)

type level = Off | Summary | Full

(* Exposed refs, not functions: the disabled path of every instrument
   inlines to a single load. Mutate only through [set]. *)
let active = ref false
let full_active = ref false
let current = ref Off

let level () = !current

let set lvl =
  current := lvl;
  active := lvl <> Off;
  full_active := lvl = Full

let to_string = function Off -> "off" | Summary -> "summary" | Full -> "full"

let of_string = function
  | "off" -> Ok Off
  | "summary" -> Ok Summary
  | "full" -> Ok Full
  | s ->
      Error
        (`Msg
          (Printf.sprintf "unknown telemetry level %S (expected off, summary or full)" s))

let pp ppf l = Fmt.string ppf (to_string l)
