(** Crash-safe sweep journal: checkpoint/resume for the engine.

    As jobs resolve, the engine appends one fsynced JSON line per
    outcome (cache hits included) to [<dir>/<sweep-digest>.journal]. A sweep killed
    mid-run resumes by reopening the journal with [~resume:true] and
    re-executing only the jobs absent from it (and from the result
    cache): outcomes are pure functions of their specs and round-trip
    bit-exactly, so a resumed run's results are byte-identical to an
    uninterrupted run's.

    The journal file is named by a digest over the {e ordered} spec
    list — a different sweep opens a different journal. Lines are
    single [write]s fsynced before {!record} returns. Replay is
    WAL-style: records are trusted up to the first one that fails to
    parse, and the damaged tail — typically one line torn by a writer
    killed mid-append — is truncated away (with a warning and a
    [checkpoint.torn_tail] telemetry tick) so the repaired journal
    holds exactly its valid records and later appends never land on
    half a record. Digest-colliding entries whose canonical key does
    not match are ignored. *)

type t

val sweep_digest : Spec.t list -> string
(** Content digest of the ordered spec list (journal identity). *)

val default_dir : cache_dir:string -> string
(** [<cache_dir>/sweeps] — journals live next to the result cache. *)

val path : dir:string -> Spec.t list -> string
(** The journal file this sweep maps to (whether or not it exists). *)

val open_ : ?resume:bool -> dir:string -> Spec.t list -> t
(** Open (creating [dir] as needed) the journal for [specs]. With
    [~resume:true] previously journaled outcomes become visible to
    {!find}; otherwise the journal is truncated and the sweep starts
    clean. *)

val loaded : t -> int
(** Number of outcomes reloaded at [open_ ~resume:true] time. *)

val repaired : t -> int
(** Torn-tail bytes truncated away at [open_ ~resume:true] time; [0]
    for a clean journal (or a non-resume open, which truncates the
    whole file anyway). *)

val path_of : t -> string

val find : t -> Spec.t -> (Pc_adversary.Runner.outcome, string) result option
(** The journaled outcome of [spec], if any ([Error] lines — jobs that
    failed deterministically — replay too, keeping resume ≡
    uninterrupted). *)

val record : t -> Spec.t -> (Pc_adversary.Runner.outcome, string) result -> unit
(** Append one line and [fsync]. Thread-safe (the pool's worker
    domains call this concurrently). *)

val close : t -> unit
