(** The sweep daemon: a Unix-domain-socket front end multiplexing many
    clients' submissions onto one supervised worker pool, with result
    cache and checkpoint journal sharded per tenant under a
    lockfile-guarded state dir.

    Durability contract: a submission is manifested (atomic rename)
    {e before} it is acked, and every outcome is journaled (fsync)
    {e before} it is cached or counted. After a kill at any point,
    {!start} replays manifests, reopens journals (repairing torn
    tails), requeues exactly the unanswered jobs and completes each
    exactly once — outcomes are pure functions of their specs, so the
    restarted run's results are byte-identical.

    Degradation ladder: full service → backpressure ([Retry_after]
    once the admission queue or a tenant quota fills) → draining
    (finish everything, accept no new work) → killed (a fatal fault;
    fds closed, nothing released — restart recovers). *)

type config = private {
  socket : string;
  state_dir : string;
  workers : int;
  queue_cap : int;  (** max admitted-but-unfinished jobs, all tenants *)
  tenant_cap : int;  (** same bound per tenant *)
  faults : Pc_exec.Faults.t option;
      (** chaos injection shared by all workers; [wkill] exercises the
          supervision tree, [kill_after] the whole-daemon kill *)
}

val config :
  ?workers:int ->
  ?queue_cap:int ->
  ?tenant_cap:int ->
  ?faults:Pc_exec.Faults.t ->
  socket:string ->
  state_dir:string ->
  unit ->
  config
(** Defaults: 4 workers, queue cap 256, tenant cap 128, no faults. *)

type exit_reason =
  | Drained  (** graceful: queue empty, state closed and released *)
  | Killed of string
      (** fatal fault: fds closed, lockfile and socket left behind
          (exactly what SIGKILL leaves) — restart recovers *)

type t

val start : config -> t
(** Acquire the state-dir lockfile (raises {!Pc_exec.Lockfile.Locked}
    if a live daemon holds it; breaks stale locks), bind the socket,
    spawn the worker pool, replay manifested submissions, and begin
    accepting. Returns immediately; {!wait} blocks. *)

val wait : t -> exit_reason
val run : config -> exit_reason
(** [start] + [wait]. *)

val drain : t -> unit
(** Begin graceful shutdown (also reachable over the wire and — in
    the CLI — via SIGTERM): stop admitting, finish every queued and
    in-flight job, then release everything and exit [Drained]. *)

val request_drain : t -> unit
(** Async-signal-safe {!drain} trigger (one atomic store, applied by
    the accept loop's next tick) — for SIGTERM handlers, which must
    not take mutexes. *)

val restarts : t -> int
(** Worker domains respawned since boot (the supervision tree's
    restart counter). *)
