(** Partial-compaction bounds and simulators — public facade.

    Reproduction of Cohen & Petrank, {e Limitations of Partial
    Compaction: Towards Practical Bounds}, PLDI 2013.

    Layers:
    - substrate: the heap kernel {!Heap} and {!Free_index}, {!Budget},
      {!Metrics}, {!Trace}, {!Layout};
    - memory managers: {!Manager}, {!Managers} (registry of
      first/best/next/worst fit, buddy, segregated, aligned fit, and
      the c-partial compactors);
    - the interaction model and adversaries: {!Driver}, {!Program},
      {!Runner}, {!Robson_pr}, {!Pf}, {!Random_workload};
    - closed-form bounds: {!Bounds};
    - jobs and the parallel sweep engine with its result cache:
      {!Exec} ({!Exec.Spec.run} runs one job), and the JSON
      reader/writer its records use: {!Json};
    - self-auditing runs: runtime oracles, the kernel-vs-reference
      divergence watchdog and trace-shrinking failure triage: {!Audit};
    - process-wide instruments behind a zero-cost-when-disabled sink:
      {!Telemetry}. *)

module Word = Pc_heap.Word
module Oid = Pc_heap.Oid
module Free_index = Pc_heap.Free_index
module Heap = Pc_heap.Heap
module Budget = Pc_heap.Budget
module Metrics = Pc_heap.Metrics
module Trace = Pc_heap.Trace
module Layout = Pc_heap.Layout
module Ctx = Pc_manager.Ctx
module Manager = Pc_manager.Manager
module Managers = Pc_manager.Registry
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

(** Self-auditing runs: composable runtime oracles ({!Audit.Oracle}),
    ddmin trace minimization ({!Audit.Shrink}) and replayable repro
    bundles with the shared exit-code taxonomy ({!Audit.Report}). *)
module Audit : sig
  module Oracle = Pc_audit.Oracle
  module Shrink = Pc_audit.Shrink
  module Report = Pc_audit.Report
end

(** The JSON reader/writer behind cache entries, journals, the serve
    protocol and telemetry snapshots. *)
module Json = Pc_json.Json

(** The sweep engine: deterministic job specs, the content-addressed
    on-disk result cache, the checkpoint journal, and the supervised
    [Domain] worker pool that both batch sweeps ({!Exec.Engine.run})
    and the sweep daemon run on. *)
module Exec : sig
  module Spec = Pc_exec.Spec
  module Supervisor = Pc_exec.Supervisor
  module Cache = Pc_exec.Cache
  module Checkpoint = Pc_exec.Checkpoint
  module Faults = Pc_exec.Faults
  module Engine = Pc_exec.Engine
  module Lockfile = Pc_exec.Lockfile
end

(** The sweep daemon ([pc serve]) and its client half: length-prefixed
    wire framing, the versioned JSON protocol, the per-tenant state
    store, the server (its workers are an {!Exec.Supervisor} pool), and
    the submit/wait/results client with backoff. *)
module Serve : sig
  module Wire = Pc_serve.Wire
  module Protocol = Pc_serve.Protocol
  module Store = Pc_serve.Store
  module Server = Pc_serve.Server
  module Client = Pc_serve.Client
end

(** Low-overhead process-wide instruments — monotonic counters, gauges,
    log2 histograms, nestable timed spans — interned by name in
    {!Telemetry.Registry} and snapshotted into the stable
    [pc-telemetry/1] schema for [pc report]. Disabled (the default)
    every instrument is a load-and-branch no-op; levels only observe,
    so results are bit-identical across them. *)
module Telemetry : sig
  module Sink = Pc_telemetry.Sink
  module Counter = Pc_telemetry.Counter
  module Gauge = Pc_telemetry.Gauge
  module Histogram = Pc_telemetry.Histogram
  module Span = Pc_telemetry.Span
  module Registry = Pc_telemetry.Registry
  module Snapshot = Pc_telemetry.Snapshot
  module Report = Pc_telemetry.Report
end

module Bounds : sig
  module Robson = Pc_bounds.Robson
  module Bendersky_petrank = Pc_bounds.Bendersky_petrank
  module Cohen_petrank = Pc_bounds.Cohen_petrank
  module Theorem2 = Pc_bounds.Theorem2
  module Params = Pc_bounds.Params
end
