(** A supervised worker pool: N worker [Domain]s fed from one shared
    queue, each watched by a monitor thread that restarts it when it
    dies. The engine's only pool: the serve daemon keeps one for its
    lifetime, and {!Engine.run} maps a sweep over a transient one
    ({!map_array}).

    [exec] is expected to absorb per-job failures itself (the engine
    captures, retries and degrades them to [Error] results); any
    exception that {e escapes} a worker is a worker death. The monitor
    requeues the job the dead worker held at the {e front} of the
    queue (a repeatedly-killed job is never starved by fresh
    arrivals), calls [on_restart job], bumps {!restarts}, and spawns a
    replacement domain. Exceptions matching [fatal] instead abort the
    pool — the simulated kill -9 of crash-recovery drills: no requeue,
    no respawn, [on_fatal] fires once, the queue stops dispensing.

    Exactly-once interplay: a worker dies either before journaling its
    job (the requeued copy re-executes from scratch) or after (the
    requeued copy resolves from the journal without re-executing) — in
    both cases the job lives in exactly one place, so a completed job
    is journaled exactly once. *)

type 'a t

val create :
  ?on_restart:('a -> unit) ->
  ?fatal:(exn -> bool) ->
  ?on_fatal:(exn -> unit) ->
  workers:int ->
  ('a -> unit) ->
  'a t
(** Spawn [max 1 workers] worker domains (plus one monitor systhread
    each) running the given [exec]. [on_restart] observes each
    requeued job (the daemon bumps the job's kill count there, which
    caps injected kills via [Faults.max_transient]). *)

val push : 'a t -> 'a -> unit
(** Enqueue a job. Raises [Invalid_argument] after {!shutdown} or a
    fatal abort. *)

val pending : 'a t -> int
val in_flight : 'a t -> int
val restarts : 'a t -> int

val aborted : 'a t -> bool
val fatal_exn : 'a t -> exn option

val idle : 'a t -> bool
(** Queue empty and nothing in flight. *)

val drain : 'a t -> unit
(** Block until {!idle} (or a fatal abort). Does not stop workers —
    more jobs may be pushed afterwards. *)

val shutdown : 'a t -> unit
(** Finish the queue, stop the workers, join every monitor. After a
    fatal abort this returns once in-flight jobs have wound down. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f items] applies [f] to every element on a
    transient pool of [min jobs (length items)] workers and returns the
    results in order. [jobs <= 1] (or fewer than two items) runs inline
    on the calling domain: no domain, no thread. If [f] raises, every
    other task still runs; the first exception in submission order is
    re-raised after the pool is shut down. *)
