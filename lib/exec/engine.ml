open Pc_adversary

(* The sweep engine: resolve each job spec against the checkpoint
   journal and the result cache, execute the misses with per-job
   exception capture and retries, journal and store fresh outcomes
   back, and report a summary. [resolve] is that
   pipeline for one spec, and it is the only one: [run] is [resolve]
   mapped over a sweep (on the [Supervisor] pool when [jobs >= 2]),
   and the serve daemon calls [resolve] from its supervised workers.
   Every resolved job — a cache hit included — is journaled, so a
   resumed sweep never depends on the cache surviving.

   Determinism: every job rebuilds its program, manager, heap and
   budget from the spec alone, and all randomness in the workloads is
   seeded — so the outcome of a spec is a pure function of the spec,
   independent of worker count, scheduling, retries and resume point.
   [run ~jobs:4] is bit-identical to [run ~jobs:1], and a killed sweep
   resumed from its journal is bit-identical to an uninterrupted one.

   Failure taxonomy (see DESIGN.md):
   - transient: an injected worker crash ([Faults.Worker_crash]) and
     nothing else. Retried up to [retries] times, sleeping
     [Faults.backoff] between attempts. An injected delay is a stall,
     not a failure: the attempt's outcome counts.
   - deterministic: any other exception that the job reproduces on an
     immediate probe re-run. Degrades to [Error] without burning the
     transient-retry budget — a poisoned spec never stalls the pool.
   - fatal: [Faults.Sweep_killed] (the simulated process kill) is
     never caught; it escapes [run] so crash-recovery tests exercise
     the same path a real SIGKILL would. *)

let src = Logs.Src.create "pc.exec" ~doc:"parallel sweep engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Telemetry: resolution mix (journal/cache/executed), transient-retry
   pressure, and one "job:<digest-prefix>" span per job of a sweep so
   `pc report` can rank the hottest points. Job spans are interned on
   the main domain before dispatch; each is then written by exactly
   one worker. *)
module T = Pc_telemetry

let jobs_c = T.Registry.counter "engine.jobs"
let executed_c = T.Registry.counter "engine.executed"
let cache_hits_c = T.Registry.counter "engine.cache_hits"
let cache_miss_c = T.Registry.counter "engine.cache_misses"
let cache_invalid_c = T.Registry.counter "engine.cache_invalid"
let resumed_c = T.Registry.counter "engine.journal_resumed"
let retries_c = T.Registry.counter "engine.retries"
let transients_c = T.Registry.counter "engine.transient_failures"
let failed_c = T.Registry.counter "engine.failed"

type job_result = {
  spec : Spec.t;
  result : (Runner.outcome, string) result;
  from_cache : bool;
  from_journal : bool;
  attempts : int;
  elapsed : float;
  bundle : string option;
}

type summary = {
  total : int;
  executed : int;
  cached : int;
  resumed : int;
  recovered : int;
  retried : int;
  failed : int;
  violations : int;
  bundles : string list;
  wall : float;
}

(* ------------------------------------------------------------------ *)
(* One job, with retries                                              *)

let run_once ?faults ?audit ?failures_dir spec ~digest ~attempt =
  match
    (match faults with
    | Some f -> Faults.pre_job f ~digest ~attempt
    | None -> ());
    Spec.run ?audit ?failures_dir spec
  with
  | outcome -> Ok outcome
  | exception (Faults.Sweep_killed _ as e) ->
      (* Never classified: the simulated process kill. *)
      raise e
  | exception e -> Error e

let execute_with_retries ?faults ?(retries = 0) ?(backoff = 0.1) ?audit
    ?failures_dir spec =
  let digest = Spec.digest spec in
  let seed = match faults with Some f -> Faults.seed f | None -> 0 in
  let t0 = Unix.gettimeofday () in
  let bundle = ref None in
  (* [attempt] numbers every execution; [transients] counts the
     transient failures burned so far (capped by [retries]);
     [probed] is set once a generic exception has been re-run. *)
  let rec go ~attempt ~transients ~probed =
    match run_once ?faults ?audit ?failures_dir spec ~digest ~attempt with
    | Ok outcome -> (Ok outcome, attempt + 1)
    | Error (Faults.Worker_crash _) ->
        T.Counter.incr transients_c;
        if transients < retries then begin
          Log.info (fun k ->
              k "job %s: transient failure (worker crash) on attempt %d; \
                 retrying"
                digest attempt);
          Unix.sleepf
            (Faults.backoff ~seed ~site:"backoff" ~digest ~base:backoff
               transients);
          go ~attempt:(attempt + 1) ~transients:(transients + 1) ~probed
        end
        else
          ( Error
              (Printf.sprintf
                 "unrecovered transient failure (worker crash) after %d \
                  attempts"
                 (attempt + 1)),
            attempt + 1 )
    | Error (Pc_audit.Report.Reported b) ->
        (* An oracle violation is deterministic by construction (the
           bundle's replay already reproduced it during triage): no
           probe, no retry, and the bundle path rides on the result. *)
        bundle := Some b.Pc_audit.Report.dir;
        ( Error
            (Fmt.str "oracle violation: %a [bundle: %s]"
               Pc_audit.Oracle.pp_violation b.Pc_audit.Report.violation
               b.Pc_audit.Report.dir),
          attempt + 1 )
    | Error e ->
        if not probed then begin
          (* First sighting of a generic exception: probe once,
             immediately. If the job reproduces it, it is
             deterministic; if not, it was environmental. *)
          Log.debug (fun k ->
              k "job %s: %s on attempt %d; probing for reproducibility" digest
                (Printexc.to_string e) attempt);
          go ~attempt:(attempt + 1) ~transients ~probed:true
        end
        else (Error (Printexc.to_string e), attempt + 1)
  in
  let result, attempts = go ~attempt:0 ~transients:0 ~probed:false in
  {
    spec;
    result;
    from_cache = false;
    from_journal = false;
    attempts;
    elapsed = Unix.gettimeofday () -. t0;
    bundle = !bundle;
  }

let execute spec = execute_with_retries spec

(* ------------------------------------------------------------------ *)
(* One job, resolved end to end                                       *)

(* The per-job resolution pipeline — journal, then cache, then an
   execution with retries, with the fresh outcome journaled (fsynced)
   before it is cached. [run] and the serve daemon both call it, so a
   batch sweep and a daemon run the same code per job. Journal-first
   durability order means a worker killed at any point either left no
   trace (the job re-resolves from scratch) or a complete journal line
   (the job replays without re-execution): completion is exactly-once.
   A cache hit is journaled too, so the journal alone answers "is this
   job complete" across kills and daemon restarts. *)
let resolve ?cache ?checkpoint ?faults ?retries ?backoff ?audit ?failures_dir
    ?(on_cache_invalid = fun ~path:_ ~reason:_ -> ()) spec =
  let hit result ~from_cache ~from_journal =
    {
      spec;
      result;
      from_cache;
      from_journal;
      attempts = 0;
      elapsed = 0.;
      bundle = None;
    }
  in
  match Option.bind checkpoint (fun j -> Checkpoint.find j spec) with
  | Some result ->
      T.Counter.incr resumed_c;
      hit result ~from_cache:false ~from_journal:true
  | None -> (
      let cached =
        match cache with
        | None -> None
        | Some cache -> (
            match Cache.lookup ?faults cache spec with
            | Cache.Hit outcome ->
                T.Counter.incr cache_hits_c;
                Some outcome
            | Cache.Miss ->
                T.Counter.incr cache_miss_c;
                None
            | Cache.Invalid { path; reason } ->
                T.Counter.incr cache_invalid_c;
                Log.warn (fun k ->
                    k "cache: invalid entry %s (%s); re-executing" path reason);
                on_cache_invalid ~path ~reason;
                None)
      in
      match cached with
      | Some outcome ->
          (match checkpoint with
          | Some journal -> Checkpoint.record journal spec (Ok outcome)
          | None -> ());
          hit (Ok outcome) ~from_cache:true ~from_journal:false
      | None ->
          let r =
            execute_with_retries ?faults ?retries ?backoff ?audit ?failures_dir
              spec
          in
          (* Durability order matters: journal first (fsynced —
             survives a kill), then cache, then the fault layer's kill
             point. *)
          (match checkpoint with
          | Some journal -> Checkpoint.record journal spec r.result
          | None -> ());
          (match (cache, r.result) with
          | Some cache, Ok outcome -> Cache.store ?faults cache spec outcome
          | _ -> ());
          (match faults with Some f -> Faults.job_completed f | None -> ());
          T.Counter.incr executed_c;
          r)

(* ------------------------------------------------------------------ *)
(* The sweep                                                          *)

let run ?(jobs = 1) ?cache ?checkpoint ?retries ?backoff ?faults ?audit
    ?failures_dir specs =
  let t0 = Unix.gettimeofday () in
  let recovered = Atomic.make 0 in
  let on_cache_invalid ~path:_ ~reason:_ = Atomic.incr recovered in
  Log.info (fun k ->
      k "sweep: %d points on %d worker(s)" (List.length specs) (max 1 jobs));
  (* Job spans are interned up front, on the main domain, so the
     registry mutex is never contended from the pool and each span has
     a single writer (its worker). Created only when telemetry is on —
     a large disabled sweep should not populate the registry. A span
     times the job's whole [resolve], so a hit's span shows its
     lookup. *)
  let with_span spec =
    if !T.Sink.active then begin
      let digest = Spec.digest spec in
      let short = String.sub digest 0 (min 12 (String.length digest)) in
      (spec, Some (T.Registry.span ("job:" ^ short)))
    end
    else (spec, None)
  in
  let resolve_one (spec, span) =
    let work () =
      resolve ?cache ?checkpoint ?faults ?retries ?backoff ?audit
        ?failures_dir ~on_cache_invalid spec
    in
    match span with Some s -> T.Span.time s work | None -> work ()
  in
  let results =
    Array.to_list
      (Supervisor.map_array ~jobs resolve_one
         (Array.of_list (List.map with_span specs)))
  in
  let count p = List.length (List.filter p results) in
  let bundles = List.filter_map (fun r -> r.bundle) results in
  let summary =
    {
      total = List.length results;
      executed = count (fun r -> not (r.from_cache || r.from_journal));
      cached = count (fun r -> r.from_cache);
      resumed = count (fun r -> r.from_journal);
      recovered = Atomic.get recovered;
      retried =
        List.fold_left (fun acc r -> acc + max 0 (r.attempts - 1)) 0 results;
      failed = count (fun r -> Result.is_error r.result);
      violations = List.length bundles;
      bundles;
      wall = Unix.gettimeofday () -. t0;
    }
  in
  T.Counter.add jobs_c summary.total;
  T.Counter.add retries_c summary.retried;
  T.Counter.add failed_c summary.failed;
  (results, summary)

let outcome_exn r =
  match r.result with
  | Ok o -> o
  | Error msg -> Fmt.failwith "job %a failed: %s" Spec.pp r.spec msg

let pp_summary ppf s =
  Fmt.pf ppf "%d point%s: %d executed, %d cached, %d failed in %.2fs" s.total
    (if s.total = 1 then "" else "s")
    s.executed s.cached s.failed s.wall;
  if s.resumed > 0 then Fmt.pf ppf " (%d resumed from journal)" s.resumed;
  if s.recovered > 0 then
    Fmt.pf ppf " (%d invalid cache entr%s recovered)" s.recovered
      (if s.recovered = 1 then "y" else "ies");
  if s.retried > 0 then
    Fmt.pf ppf " (%d retr%s)" s.retried (if s.retried = 1 then "y" else "ies");
  if s.violations > 0 then begin
    Fmt.pf ppf " (%d oracle violation%s)" s.violations
      (if s.violations = 1 then "" else "s");
    List.iter (fun b -> Fmt.pf ppf "@,  bundle: %s" b) s.bundles
  end
