(** The fault-tolerant parallel sweep engine.

    {!resolve} is the one per-job pipeline: it resolves a spec against
    the checkpoint journal (resume) and the result cache, executes a
    miss with exception capture and retries, and journals the result —
    a cache hit included — before caching a fresh outcome. [run] is [resolve] mapped over a sweep, on a
    {!Supervisor} pool when [jobs >= 2], and returns per-job results in
    input order plus a summary; the serve daemon calls [resolve] from
    its own supervised workers.

    Outcomes are a pure function of the spec — workload randomness is
    seeded, and every job gets a fresh heap, budget and manager — so
    [run ~jobs:k] is bit-identical to [run ~jobs:1] for any [k], and a
    sweep killed mid-run and resumed from its journal is bit-identical
    to an uninterrupted one.

    Failure taxonomy (DESIGN.md §failure-taxonomy):
    - {e transient} — an injected worker crash ({!Faults.Worker_crash})
      and nothing else: retried up to [retries] times, sleeping
      {!Faults.backoff} between attempts. An injected delay is a
      stall, not a failure: the attempt's outcome counts.
    - {e deterministic} — any other exception the job reproduces on an
      immediate probe re-run: degrades to [Error] without burning the
      transient budget, so a poisoned spec never stalls the pool.
    - {e fatal} — {!Faults.Sweep_killed} (the simulated process kill)
      escapes [run]; resume from the journal afterwards. *)

type job_result = {
  spec : Spec.t;
  result : (Pc_adversary.Runner.outcome, string) result;
      (** [Error] carries the captured exception text; one diverging
          job never kills the sweep. *)
  from_cache : bool;
  from_journal : bool;  (** replayed from the checkpoint journal *)
  attempts : int;
      (** execution attempts this run; [0] for cache/journal hits *)
  elapsed : float;  (** seconds spent executing; [0.] for hits *)
  bundle : string option;
      (** repro-bundle directory when the job died on a triaged oracle
          violation (see {!Pc_audit.Report}) *)
}

type summary = {
  total : int;
  executed : int;
  cached : int;
  resumed : int;  (** jobs replayed from the checkpoint journal *)
  recovered : int;
      (** invalid (truncated, garbage, stale-format, digest-collision)
          cache entries that were detected, logged and re-executed —
          silent cache rot made visible *)
  retried : int;  (** extra execution attempts across all jobs *)
  failed : int;
  violations : int;  (** jobs that died on a triaged oracle violation *)
  bundles : string list;  (** their repro-bundle directories *)
  wall : float;  (** wall-clock seconds for the whole sweep *)
}

val run :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?checkpoint:Checkpoint.t ->
  ?retries:int ->
  ?backoff:float ->
  ?faults:Faults.t ->
  ?audit:Pc_audit.Oracle.level ->
  ?failures_dir:string ->
  Spec.t list ->
  job_result list * summary
(** [resolve] for every spec. [jobs] (default 1) caps the
    worker-domain count; [jobs <= 1] runs inline on the calling domain.
    Omitting [cache] disables caching; omitting [checkpoint] disables
    journaling. Every job is journaled, a cache hit too, so a resumed
    sweep replays it even if the cache is gone; a spec listed twice is
    answered the second time by the journal line the first wrote. [retries] (default 0)
    bounds transient-failure re-attempts per job; [backoff] (default
    0.1) is the [base] of {!Faults.backoff} in seconds. [faults] injects
    seeded chaos at job and cache boundaries (see {!Faults}). Results
    come back in input order.

    [audit] attaches the {!Pc_audit.Oracle} layer to every executed
    job (at [Full] this also enables PF's internal Claim 4.16 audit;
    full-strength PF specs additionally get the Theorem 1 floor). A
    violating job is deterministic by definition — it degrades to
    [Error] without probe or retry, its repro bundle (written under
    [failures_dir], default {!Pc_audit.Report.default_dir}) rides on
    {!job_result.bundle}, and the summary counts it in
    {!summary.violations}. The audit level is not part of the spec's
    cache identity: audited and unaudited runs of the same spec share
    cache entries (auditing changes what is checked, never the
    outcome) — use a fresh cache or [--no-cache] to force audited
    re-execution of previously cached points. *)

val execute : Spec.t -> job_result
(** Run one spec on the calling domain, bypassing cache, journal and
    retries. *)

val execute_with_retries :
  ?faults:Faults.t ->
  ?retries:int ->
  ?backoff:float ->
  ?audit:Pc_audit.Oracle.level ->
  ?failures_dir:string ->
  Spec.t ->
  job_result
(** The per-job attempt loop {!resolve} uses, exposed for tests. *)

val resolve :
  ?cache:Cache.t ->
  ?checkpoint:Checkpoint.t ->
  ?faults:Faults.t ->
  ?retries:int ->
  ?backoff:float ->
  ?audit:Pc_audit.Oracle.level ->
  ?failures_dir:string ->
  ?on_cache_invalid:(path:string -> reason:string -> unit) ->
  Spec.t ->
  job_result
(** Resolve one spec end to end — journal, then cache, then
    {!execute_with_retries} — journaling (fsync) a fresh outcome
    {e before} caching it. [run] calls it once per spec, and callers
    that schedule their own queue (the serve daemon's supervised
    workers) call it directly: a worker killed at any point either left
    no trace or a complete journal line, so replays never re-execute
    and completion is exactly-once. A cache hit is journaled too,
    making the journal alone authoritative for "is this job complete"
    across kills and daemon restarts. [on_cache_invalid] observes
    detected cache rot ([run] counts it in {!summary.recovered}). *)

val outcome_exn : job_result -> Pc_adversary.Runner.outcome
(** Raises [Failure] with the captured error text on a failed job. *)

val pp_summary : Format.formatter -> summary -> unit
