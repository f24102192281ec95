open Pc_exec

(* The serve daemon: a Unix-domain-socket front end that multiplexes
   many clients' sweep submissions onto one supervised worker pool,
   sharding result cache and checkpoint journal per tenant under a
   lockfile-guarded state dir.

   Threading model: one accept loop (select with a 0.25s tick, so it
   notices stop/drain without signals racing fd closes), one short
   systhread per client connection, one supervised Domain per worker
   slot, one monitor systhread per slot (see Supervisor). All daemon
   state — submissions, counters, quotas — lives behind [t.mutex];
   nothing blocking is done while holding it.

   Durability contract: a submission is manifested (atomic rename)
   before it is acked, and every job outcome is journaled (fsync)
   before it is cached or counted — so after a kill at ANY point,
   restart replays manifests, reopens journals (repairing torn
   tails), requeues exactly the unanswered jobs, and completes each
   exactly once. The killed-daemon exit path closes fds but releases
   nothing else — faithfully what SIGKILL leaves behind: a stale
   lockfile (PID-checked and broken on restart) and a stale socket
   file (unlinked on restart). *)

let src = Logs.Src.create "pc.serve" ~doc:"sweep daemon"

module Log = (val Logs.src_log src : Logs.LOG)
module T = Pc_telemetry

let queue_g = T.Registry.gauge "serve.queue_depth"
let in_flight_g = T.Registry.gauge "serve.in_flight"
let restarts_g = T.Registry.gauge "serve.restarts"
let hit_rate_g = T.Registry.gauge "serve.cache_hit_rate"
let submissions_c = T.Registry.counter "serve.submissions"
let refused_c = T.Registry.counter "serve.refused"
let retry_after_c = T.Registry.counter "serve.retry_after"

type config = {
  socket : string;
  state_dir : string;
  workers : int;
  queue_cap : int;  (* max admitted-but-unfinished jobs, all tenants *)
  tenant_cap : int;  (* max admitted-but-unfinished jobs per tenant *)
  faults : Faults.t option;  (* chaos injection, shared by all workers *)
}

let config ?(workers = 4) ?(queue_cap = 256) ?(tenant_cap = 128) ?faults
    ~socket ~state_dir () =
  { socket; state_dir; workers; queue_cap; tenant_cap; faults }

type exit_reason = Drained | Killed of string

type sub = {
  manifest : Store.manifest;
  checkpoint : Checkpoint.t;
  cache : Cache.t;
  mutable completed : int;
  mutable failed : int;
  mutable skipped : int;
  mutable cancelled : bool;
}

type job = { sub : sub; spec : Spec.t; mutable kills : int }

type t = {
  cfg : config;
  lock : Lockfile.t;
  listen : Unix.file_descr;
  mutex : Mutex.t;
  subs : (string * string, sub) Hashtbl.t; (* (tenant, id) *)
  caches : (string, Cache.t) Hashtbl.t; (* tenant -> shared cache *)
  mutable submissions : int;
  mutable jobs_done : int;
  mutable cache_hits : int;
  mutable executed : int;
  mutable draining : bool;
  stop : bool Atomic.t; (* fatal abort: exit without cleanup *)
  drain_flag : bool Atomic.t; (* async-signal-safe drain request *)
  mutable pool : job Supervisor.t option; (* set once, before any push *)
  exit_mutex : Mutex.t;
  exit_cond : Condition.t;
  mutable exit_reason : exit_reason option;
  mutable accept_thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let pool t = Option.get t.pool

(* ------------------------------------------------------------------ *)
(* Job execution (worker domain)                                      *)

let exec_job t job =
  let skip =
    locked t (fun () ->
        if job.sub.cancelled then begin
          job.sub.skipped <- job.sub.skipped + 1;
          true
        end
        else false)
  in
  if not skip then begin
    (* The injected SIGKILL-a-worker drill: raised OUT of this domain,
       so the supervision tree (not the engine's retry loop) has to
       requeue the job and respawn the worker. *)
    (match t.cfg.faults with
    | Some f ->
        Faults.worker_kill f ~digest:(Spec.digest job.spec) ~kills:job.kills
    | None -> ());
    let r =
      Engine.resolve ~cache:job.sub.cache ~checkpoint:job.sub.checkpoint
        ?faults:t.cfg.faults ~retries:job.sub.manifest.retries job.spec
    in
    locked t (fun () ->
        job.sub.completed <- job.sub.completed + 1;
        if Result.is_error r.result then job.sub.failed <- job.sub.failed + 1;
        t.jobs_done <- t.jobs_done + 1;
        if r.from_cache then t.cache_hits <- t.cache_hits + 1;
        if (not r.from_cache) && not r.from_journal then
          t.executed <- t.executed + 1)
  end

(* ------------------------------------------------------------------ *)
(* Request handling (client threads)                                  *)

let outstanding_locked t tenant =
  Hashtbl.fold
    (fun (tn, _) sub acc ->
      if tn = tenant && not sub.cancelled then
        acc
        + max 0
            (List.length sub.manifest.specs - sub.completed - sub.skipped)
      else acc)
    t.subs 0

let register_locked t (m : Store.manifest) =
  let cache =
    match Hashtbl.find_opt t.caches m.tenant with
    | Some c -> c
    | None ->
        let c =
          Cache.create ~dir:(Store.cache_dir ~state_dir:t.cfg.state_dir m.tenant) ()
        in
        Hashtbl.add t.caches m.tenant c;
        c
  in
  let checkpoint =
    Checkpoint.open_ ~resume:true
      ~dir:(Store.journal_dir ~state_dir:t.cfg.state_dir m.tenant)
      m.specs
  in
  let sub =
    {
      manifest = m;
      checkpoint;
      cache;
      completed = 0;
      failed = 0;
      skipped = 0;
      cancelled = false;
    }
  in
  Hashtbl.add t.subs (m.tenant, m.id) sub;
  t.submissions <- t.submissions + 1;
  T.Counter.incr submissions_c;
  sub

let enqueue t sub =
  List.iter
    (fun spec -> Supervisor.push (pool t) { sub; spec; kills = 0 })
    sub.manifest.specs

let handle_submit t (s : Protocol.submit) =
  if not (Protocol.tenant_ok s.tenant) then
    Protocol.Refused
      {
        code = "bad-tenant";
        message =
          Printf.sprintf
            "tenant %S: use 1-64 chars from [A-Za-z0-9._-], not \".\"/\"..\""
            s.tenant;
      }
  else begin
    let id = Store.submission_id s.specs in
    let n = List.length s.specs in
    let decision =
      locked t (fun () ->
          match Hashtbl.find_opt t.subs (s.tenant, id) with
          | Some _ -> `Known
          | None ->
              if t.draining then `Busy "draining"
              else begin
                let load =
                  Supervisor.pending (pool t) + Supervisor.in_flight (pool t)
                in
                if load + n > t.cfg.queue_cap then `Busy "queue full"
                else if outstanding_locked t s.tenant + n > t.cfg.tenant_cap
                then `Busy "tenant quota"
                else begin
                  let m =
                    Store.make ~tenant:s.tenant ~specs:s.specs ~retries:s.retries
                  in
                  (* Durable before acked: the manifest hits disk
                     (atomic rename) before the Accepted goes out. *)
                  Store.save ~state_dir:t.cfg.state_dir m;
                  `Fresh (register_locked t m)
                end
              end)
    in
    match decision with
    | `Known -> Protocol.Accepted { id; total = n; known = true }
    | `Busy reason ->
        T.Counter.incr retry_after_c;
        (* Hint scales with queue depth: a deeper backlog asks clients
           to stay away longer, shedding load earliest where it is
           cheapest — at admission. *)
        let seconds =
          0.05 +. (0.01 *. float_of_int (Supervisor.pending (pool t)))
        in
        Protocol.Retry_after { seconds = Float.min seconds 2.0; reason }
    | `Fresh sub ->
        enqueue t sub;
        Protocol.Accepted { id; total = n; known = false }
  end

let find_sub t ~tenant ~id k =
  match locked t (fun () -> Hashtbl.find_opt t.subs (tenant, id)) with
  | None ->
      T.Counter.incr refused_c;
      Protocol.Refused
        {
          code = "unknown-id";
          message = Printf.sprintf "no submission %s for tenant %s" id tenant;
        }
  | Some sub -> k sub

let progress_locked sub =
  {
    Protocol.total = List.length sub.manifest.specs;
    completed = sub.completed;
    failed = sub.failed;
    skipped = sub.skipped;
  }

let handle_status t ~tenant ~id =
  find_sub t ~tenant ~id (fun sub ->
      locked t (fun () ->
          let p = progress_locked sub in
          let state =
            if sub.cancelled then "cancelled"
            else if p.completed + p.skipped >= p.total then "completed"
            else if p.completed > 0 then "running"
            else "queued"
          in
          Protocol.Status_of { id; state; progress = p }))

let handle_cancel t ~tenant ~id =
  find_sub t ~tenant ~id (fun sub ->
      locked t (fun () ->
          sub.cancelled <- true;
          Protocol.Cancelled { id; skipped = sub.skipped }))

let handle_results t ~tenant ~id =
  find_sub t ~tenant ~id (fun sub ->
      (* Served straight from the journal — the same bytes a resume
         would replay, so daemon results ≡ local sweep results. *)
      let results =
        List.filter_map
          (fun spec ->
            Checkpoint.find sub.checkpoint spec
            |> Option.map (fun r -> (Spec.key spec, r)))
          sub.manifest.specs
      in
      Protocol.Results_of { id; results })

let health t =
  let p = pool t in
  let pending = Supervisor.pending p in
  let in_flight = Supervisor.in_flight p in
  let restarts = Supervisor.restarts p in
  let h =
    locked t (fun () ->
        {
          Protocol.pending;
          in_flight;
          workers = t.cfg.workers;
          restarts;
          tenants = Hashtbl.length t.caches;
          submissions = t.submissions;
          jobs_done = t.jobs_done;
          cache_hits = t.cache_hits;
          executed = t.executed;
          draining = t.draining;
        })
  in
  T.Gauge.set queue_g (float_of_int h.pending);
  T.Gauge.set in_flight_g (float_of_int h.in_flight);
  T.Gauge.set restarts_g (float_of_int h.restarts);
  if h.jobs_done > 0 then
    T.Gauge.set hit_rate_g
      (float_of_int h.cache_hits /. float_of_int h.jobs_done);
  h

let drain t =
  locked t (fun () ->
      if not t.draining then begin
        t.draining <- true;
        Log.info (fun k -> k "draining: no new submissions; finishing %d job(s)"
          (Supervisor.pending (pool t) + Supervisor.in_flight (pool t)))
      end)

let dispatch t = function
  | Protocol.Submit s -> handle_submit t s
  | Protocol.Status { tenant; id } -> handle_status t ~tenant ~id
  | Protocol.Cancel { tenant; id } -> handle_cancel t ~tenant ~id
  | Protocol.Results { tenant; id } -> handle_results t ~tenant ~id
  | Protocol.Health -> Protocol.Health_of (health t)
  | Protocol.Drain ->
      drain t;
      Protocol.Draining

let client_thread t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec loop () =
        match Wire.recv fd with
        | None -> ()
        | Some payload ->
            let resp =
              match Protocol.request_of_string payload with
              | Ok req -> dispatch t req
              | Error reason ->
                  T.Counter.incr refused_c;
                  Protocol.Refused { code = "bad-request"; message = reason }
            in
            Wire.send fd (Protocol.response_to_string resp);
            loop ()
      in
      try loop () with
      | Wire.Closed | Unix.Unix_error _ -> ()
      | Wire.Oversized _ as e ->
          (* The stream is desynced past a garbage length; answer once
             and hang up. *)
          (try
             Wire.send fd
               (Protocol.response_to_string
                  (Protocol.Refused
                     { code = "bad-frame"; message = Printexc.to_string e }))
           with _ -> ());
          ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

let record_exit t reason =
  Mutex.lock t.exit_mutex;
  if t.exit_reason = None then t.exit_reason <- Some reason;
  Condition.broadcast t.exit_cond;
  Mutex.unlock t.exit_mutex

let close_journals t =
  locked t (fun () ->
      Hashtbl.iter (fun _ sub -> Checkpoint.close sub.checkpoint) t.subs)

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop || Supervisor.aborted (pool t) then begin
      (* Simulated kill -9: wind the pool down, close fds (process
         death would), release NOTHING else — the stale lockfile and
         socket are the next incarnation's problem, by design. *)
      Log.warn (fun k -> k "killed: exiting without cleanup");
      Supervisor.shutdown (pool t);
      (try Unix.close t.listen with Unix.Unix_error _ -> ());
      close_journals t;
      let why =
        match Supervisor.fatal_exn (pool t) with
        | Some e -> Printexc.to_string e
        | None -> "stopped"
      in
      record_exit t (Killed why)
    end
    else if locked t (fun () -> t.draining) && Supervisor.idle (pool t)
    then begin
      Supervisor.shutdown (pool t);
      (try Unix.close t.listen with Unix.Unix_error _ -> ());
      (try Sys.remove t.cfg.socket with Sys_error _ -> ());
      close_journals t;
      Lockfile.release t.lock;
      Log.info (fun k -> k "drained: all jobs finished, state released");
      record_exit t Drained
    end
    else begin
      if Atomic.get t.drain_flag then drain t;
      (match Unix.select [ t.listen ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen with
          | fd, _ -> ignore (Thread.create (client_thread t) fd)
          | exception
              Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
            -> ())
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let start cfg =
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Pc_audit.Report.mkdir_p cfg.state_dir;
  let lock = Lockfile.acquire (Store.lock_path ~state_dir:cfg.state_dir) in
  (* We hold the state lock, so a pre-existing socket file is a dead
     daemon's leavings: unlink and rebind. *)
  Pc_audit.Report.mkdir_p (Filename.dirname cfg.socket);
  if Sys.file_exists cfg.socket then (
    try Sys.remove cfg.socket with Sys_error _ -> ());
  let listen = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen (ADDR_UNIX cfg.socket);
     Unix.listen listen 64;
     Unix.set_nonblock listen
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     Lockfile.release lock;
     raise e);
  let t =
    {
      cfg;
      lock;
      listen;
      mutex = Mutex.create ();
      subs = Hashtbl.create 16;
      caches = Hashtbl.create 8;
      submissions = 0;
      jobs_done = 0;
      cache_hits = 0;
      executed = 0;
      draining = false;
      stop = Atomic.make false;
      drain_flag = Atomic.make false;
      pool = None;
      exit_mutex = Mutex.create ();
      exit_cond = Condition.create ();
      exit_reason = None;
      accept_thread = None;
    }
  in
  let fatal = function Faults.Sweep_killed _ -> true | _ -> false in
  let on_restart job =
    job.kills <- job.kills + 1;
    Log.warn (fun k ->
        k "worker died holding %s (kill #%d); job requeued, worker respawned"
          (Spec.digest job.spec) job.kills)
  in
  let on_fatal e =
    Log.err (fun k -> k "fatal: %s — aborting daemon" (Printexc.to_string e));
    Atomic.set t.stop true
  in
  t.pool <-
    Some
      (Supervisor.create ~on_restart ~fatal ~on_fatal ~workers:cfg.workers
         (fun job -> exec_job t job));
  (* Crash recovery: every manifested submission is re-registered and
     fully re-enqueued; jobs the journal already answers for resolve
     as journal hits without re-executing. *)
  let replayed = Store.load_all ~state_dir:cfg.state_dir in
  List.iter
    (fun m ->
      let sub = locked t (fun () -> register_locked t m) in
      enqueue t sub;
      Log.info (fun k ->
          k "replayed submission %s/%s (%d job(s), %d already journaled)"
            m.Store.tenant m.Store.id (List.length m.Store.specs)
            (Checkpoint.loaded sub.checkpoint)))
    replayed;
  Log.info (fun k ->
      k "listening on %s (state %s, %d worker(s), %d replayed submission(s))"
        cfg.socket cfg.state_dir cfg.workers (List.length replayed));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  Mutex.lock t.exit_mutex;
  while t.exit_reason = None do
    Condition.wait t.exit_cond t.exit_mutex
  done;
  let r = Option.get t.exit_reason in
  Mutex.unlock t.exit_mutex;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  r

let run cfg = wait (start cfg)

(* Async-signal-safe (one atomic store): the SIGTERM handler calls
   this; the accept loop's 0.25s tick picks it up and starts the
   actual (mutex-taking) drain outside signal context. *)
let request_drain t = Atomic.set t.drain_flag true
let restarts t = Supervisor.restarts (pool t)
