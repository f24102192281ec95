(** Seeded, deterministic fault injection for the sweep engine.

    The engine, cache and CLI consult an optional [t] at job and
    cache-I/O boundaries; the hooks decide from (seed, site, digest,
    draw index) alone whether to simulate a worker crash, a stall, a
    torn cache write or a corrupted cache read. The same module backs
    the test suite and the chaos mode ([pc sweep --inject-faults]), so
    injection exercises exactly the production code paths.

    Crashes are {e transient by construction}: attempts at or beyond
    [max_transient] are left alone, so an engine retry budget
    [>= max_transient] always recovers them. A delay is a stall, never
    a failure: the attempt goes on and its outcome counts. Cache faults are
    indexed by a per-site operation counter, so a torn store is not
    torn forever and the self-heal path converges. *)

type t

exception Worker_crash of string
(** Raised by {!pre_job} to simulate a worker dying mid-job; the
    engine classifies it as transient and retries with backoff. The
    payload is the job's spec digest. *)

exception Sweep_killed of int
(** Raised by {!job_completed} once [kill_after] jobs have finished:
    the whole-process kill for crash-recovery tests. The engine lets
    it escape [run] — resume from the checkpoint journal afterwards.
    The payload is the number of completed jobs. *)

exception Worker_killed of string
(** Raised by {!worker_kill} to simulate a worker domain dying
    abruptly (the serve daemon's SIGKILL-one-worker drill). Unlike
    {!Worker_crash} this is {e not} part of the engine's retry
    taxonomy: it escapes the worker so the supervision tree has to
    requeue the in-flight job and restart the worker. The payload is
    the job's spec digest. *)

val make :
  ?seed:int ->
  ?crash:float ->
  ?delay:float ->
  ?delay_s:float ->
  ?trunc:float ->
  ?corrupt:float ->
  ?wkill:float ->
  ?max_transient:int ->
  ?kill_after:int ->
  unit ->
  t
(** All probabilities default to [0.] (no injection); [delay_s]
    defaults to 10ms, [max_transient] to 2. *)

val of_string : string -> (t, string) result
(** Parse a chaos spec like
    ["crash=0.3,delay=0.15,delay-s=0.01,trunc=0.2,corrupt=0.2,seed=7"].
    Fields: [seed], [crash], [delay], [delay-s], [trunc], [corrupt],
    [wkill], [max-transient], [kill-after]; all optional,
    comma-separated. *)

val to_string : t -> string

val seed : t -> int

val hash01 : seed:int -> site:string -> digest:string -> int -> float
(** The deterministic coin in [\[0, 1)]: a pure function of its
    arguments, identical on every machine. *)

val backoff :
  seed:int -> site:string -> digest:string -> base:float -> int -> float
(** [backoff ~seed ~site ~digest ~base k] is the sleep in seconds before
    retry [k]: [min 5 (base * 2^min(k,6) * (0.5 + j))] with [j] the
    coin [hash01 ~seed ~site ~digest k]. A pure function of its
    arguments; the one backoff every retry loop (engine and client)
    uses. Callers sleep it themselves. *)

val pre_job : t -> digest:string -> attempt:int -> unit
(** Consulted before each execution attempt: may sleep [delay_s]
    and/or raise {!Worker_crash}. Attempts [>= max_transient] are
    never faulted. *)

val worker_kill : t -> digest:string -> kills:int -> unit
(** Consulted by the serve daemon's worker loop before it starts a
    job: may raise {!Worker_killed}. [kills] is the number of times a
    worker already died holding this job; draws at or beyond
    [max_transient] never kill, so a supervised job always makes
    progress. *)

val job_completed : t -> unit
(** Consulted after a job's outcome has been journaled and cached; the
    [kill_after]-th call (and every later one) raises
    {!Sweep_killed}. *)

val mangle_write : t -> digest:string -> string -> string option
(** [Some truncated] to simulate a torn cache write (the entry is
    still renamed into place atomically — this models power loss after
    an unsynced rename, which no write protocol can mask). *)

val mangle_read : t -> digest:string -> string -> string option
(** [Some corrupted] to simulate a bad read of an intact entry. *)
