(* The public facade: one module to open. Re-exports the substrate
   (heap model), the memory managers, the adversarial programs, the
   engine and the closed-form bounds under stable names. *)

(* Substrate *)
module Word = Pc_heap.Word
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
