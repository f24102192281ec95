(** Content-addressed on-disk store of sweep results.

    One JSON file per executed spec at [<dir>/<Spec.digest>.json],
    recording the format version, the canonical spec key, the spec and
    the outcome. Entries from an older {!Spec.cache_format}, digest
    collisions, and unreadable files are all treated as misses — the
    cache never serves a wrong outcome silently. Floats round-trip
    bit-exactly, so a cache hit is indistinguishable from a re-run.

    Invalidation: delete the directory (or individual entries), or
    bump {!Spec.cache_format} when execution semantics change. *)

type t

val default_dir : unit -> string
(** [$PC_CACHE_DIR] if set, else ["_pc_cache"] under the current
    working directory. *)

val create : ?dir:string -> unit -> t
(** Open (creating directories as needed) the store at [dir],
    defaulting to {!default_dir}. *)

val dir : t -> string
val path : t -> Spec.t -> string
(** The entry file a spec maps to (whether or not it exists yet). *)

type lookup =
  | Hit of Pc_adversary.Runner.outcome
  | Miss  (** no entry on disk *)
  | Invalid of { path : string; reason : string }
      (** an entry exists but cannot be served: truncated or garbage
          bytes, a stale format version, a digest collision (key
          mismatch), or a malformed outcome. The engine counts these
          as [recovered] and re-executes. *)

val lookup : ?faults:Faults.t -> t -> Spec.t -> lookup
(** Distinguishes a plain miss from an invalid entry so silent cache
    rot becomes visible. [faults] may corrupt the read (chaos mode). *)

val find : ?faults:Faults.t -> t -> Spec.t -> Pc_adversary.Runner.outcome option
(** [None] on a miss, a stale format, or a corrupt entry
    ({!lookup} collapsed). *)

val store : ?faults:Faults.t -> t -> Spec.t -> Pc_adversary.Runner.outcome -> unit
(** Atomic (write-to-temp + rename, see
    {!Pc_audit.Report.write_file_atomic}): each store has its own temp
    file, so concurrent stores of one spec never collide, and a writer
    that raises mid-write removes its temp file. [faults] may tear the written content —
    atomically renamed into place, modelling power loss after an
    unsynced rename — which a later {!lookup} reports as [Invalid]. *)

val outcome_to_json : Pc_adversary.Runner.outcome -> Pc_json.Json.t
val outcome_of_json : Pc_json.Json.t -> Pc_adversary.Runner.outcome
(** Raises {!Bad_entry} / [Pc_json.Json.Parse_error] on malformed input. *)

exception Bad_entry of string
