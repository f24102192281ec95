(* The public facade: one module to open. Re-exports the substrate
   (heap model), the memory managers, the adversarial programs, and
   the closed-form bounds under stable names, plus a few convenience
   drivers for the common experiments. *)

(* Substrate *)
module Word = Pc_heap.Word
module Interval = Pc_heap.Interval
module Oid = Pc_heap.Oid
module Free_index = Pc_heap.Free_index
module Heap = Pc_heap.Heap
module Budget = Pc_heap.Budget
module Metrics = Pc_heap.Metrics
module Trace = Pc_heap.Trace
module Layout = Pc_heap.Layout

(* Memory managers *)
module Ctx = Pc_manager.Ctx
module Manager = Pc_manager.Manager
module Managers = Pc_manager.Registry

(* Adversaries and the interaction model *)
module Driver = Pc_adversary.Driver
module Program = Pc_adversary.Program
module Runner = Pc_adversary.Runner
module Robson_pr = Pc_adversary.Robson_pr
module Pf = Pc_adversary.Pf
module Pw = Pc_adversary.Pw
module Random_workload = Pc_adversary.Random_workload
module Sawtooth = Pc_adversary.Sawtooth
module Reduction = Pc_adversary.Reduction
module Script = Pc_adversary.Script

(* Self-auditing runs: runtime oracles, the kernel-vs-reference
   divergence watchdog, and trace-shrinking failure triage *)
module Audit = struct
  module Oracle = Pc_audit.Oracle
  module Shrink = Pc_audit.Shrink
  module Report = Pc_audit.Report
end

(* The JSON reader/writer shared by every serialised record *)
module Json = Pc_json.Json

(* The sweep engine: deterministic job specs, the result cache, the
   checkpoint journal, and the supervised Domain worker pool *)
module Exec = struct
  module Spec = Pc_exec.Spec
  module Supervisor = Pc_exec.Supervisor
  module Cache = Pc_exec.Cache
  module Checkpoint = Pc_exec.Checkpoint
  module Faults = Pc_exec.Faults
  module Engine = Pc_exec.Engine
  module Lockfile = Pc_exec.Lockfile
end

(* The sweep daemon: wire framing + protocol, per-tenant state store,
   the server, and the client half *)
module Serve = struct
  module Wire = Pc_serve.Wire
  module Protocol = Pc_serve.Protocol
  module Store = Pc_serve.Store
  module Server = Pc_serve.Server
  module Client = Pc_serve.Client
end

(* Process-wide instruments: counters, gauges, log2 histograms and
   nestable spans behind a zero-cost-when-disabled sink, snapshotted
   into a stable schema for `pc report` *)
module Telemetry = struct
  module Sink = Pc_telemetry.Sink
  module Counter = Pc_telemetry.Counter
  module Gauge = Pc_telemetry.Gauge
  module Histogram = Pc_telemetry.Histogram
  module Span = Pc_telemetry.Span
  module Registry = Pc_telemetry.Registry
  module Snapshot = Pc_telemetry.Snapshot
  module Report = Pc_telemetry.Report
end

(* Closed-form bounds *)
module Bounds = struct
  module Robson = Pc_bounds.Robson
  module Bendersky_petrank = Pc_bounds.Bendersky_petrank
  module Cohen_petrank = Pc_bounds.Cohen_petrank
  module Theorem2 = Pc_bounds.Theorem2
  module Params = Pc_bounds.Params
end

(* Run the paper's adversary PF against a named manager and report the
   outcome next to the Theorem 1 prediction. *)
type pf_report = {
  outcome : Runner.outcome;
  config : Pf.config;
  theory_h : float; (* Theorem 1 waste factor at these parameters *)
}

let run_pf ?ell ?(audit = Pc_audit.Oracle.Off) ?failures_dir ~m ~n ~c
    ~manager () =
  let mgr = Managers.construct_exn manager in
  (* At Full the oracle layer also turns on PF's internal Claim 4.16
     potential audit. *)
  let pf_audit = audit = Pc_audit.Oracle.Full in
  let config, program = Pf.program ?ell ~audit:pf_audit ~m ~n ~c () in
  let outcome =
    Runner.run ~c ~audit ~theory_h:config.h ?failures_dir
      ~program ~manager:mgr ()
  in
  let theory_h = Pc_bounds.Cohen_petrank.waste_factor ~m ~n ~c in
  { outcome; config; theory_h }

(* Run Robson's adversary against a named (non-moving) manager and
   report the outcome next to Robson's matching bound. *)
type robson_report = {
  outcome : Runner.outcome;
  theory_waste : float; (* Robson's bound divided by M *)
}

let run_robson ?steps ~m ~n ~manager () =
  let mgr = Managers.construct_exn manager in
  let program = Robson_pr.program ?steps ~m ~n () in
  let outcome = Runner.run ~program ~manager:mgr () in
  { outcome; theory_waste = Pc_bounds.Robson.waste_factor_pow2 ~m ~n }
