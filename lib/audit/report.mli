(** Failure triage: oracle violation + recorded trace → minimized,
    replayable repro bundle on disk.

    A bundle is a directory [<oracle>-<digest12>/] under the failures
    directory (default [_pc_failures/], overridable with
    [PC_FAILURES_DIR] or [?dir]) holding [meta.txt] (line-based
    ["key value"] parameters and provenance: oracle, event index,
    detail, program, manager, M, n, c, theory floor, event
    counts, commit, and the exact replay command) and [trace.txt] (the
    minimized trace in {!Pc_heap.Trace} wire format). Emission is
    atomic (tmp dir + rename), and the name is a content digest, so
    re-running the same failure converges on the same bundle. *)

type info = {
  program : string;
  manager : string;
  m : int;  (** live-space bound M *)
  n : int;  (** largest object size *)
  c : float option;  (** the {e audited} compaction bound *)
  theory_h : float option;  (** Theorem 1 floor, when known *)
}

type bundle = {
  dir : string;
  violation : Oracle.violation;
  info : info;
  events_full : int;  (** recorded trace length at capture time *)
  events_min : int;  (** after delta debugging *)
}

exception Reported of bundle
(** Raised by {!capture} once the bundle is on disk — the signal that
    a violation was caught {e and} triaged. *)

val default_dir : unit -> string
(** [PC_FAILURES_DIR] if set, else ["_pc_failures"]. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode [0o755]); a
    directory another process creates meanwhile is not an error. The
    result cache, sweep journals, lock files and [pc serve]'s state
    directory use it too. *)

val write_fully : Unix.file_descr -> Bytes.t -> unit
(** Write all of the buffer to the descriptor, retrying short writes
    and writes interrupted by a signal ([EINTR]). The sweep journal and
    [pc serve]'s wire frames use it. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes [contents] to a temp file
    next to [path], named uniquely per process and per call, then
    renames it over [path]: readers see the old file or the whole new
    one, and concurrent writers of one path never share a temp file.
    If the write or the rename raises, the temp file is removed and the
    exception re-raised. The result cache and [pc serve]'s manifests
    use it. *)

val capture :
  ?dir:string ->
  ?max_shrink_tests:int ->
  info:info ->
  violation:Oracle.violation ->
  trace:Pc_heap.Trace.t ->
  unit ->
  'a
(** Delta-debug [trace] against the violated oracle (when
    {!Oracle.shrinkable} says replay can re-trip it — otherwise the
    trace ships unshrunk), emit the bundle, and raise {!Reported}.
    Never returns. *)

val reproduces : ?only:string -> info:info -> Pc_heap.Trace.t -> Oracle.violation option
(** Replay [trace] on a fresh heap with the oracles attached at
    every-event intensity ([only] restricts to one oracle;
    ["divergence"] selects the differential watchdog). [None] if the
    replay is clean {e or} the trace is malformed. *)

val load : string -> (bundle * Pc_heap.Trace.t, string) result
(** Read a bundle directory back. *)

val replay : string -> (Oracle.violation option, string) result
(** [load] then [reproduces] with the bundle's recorded parameters.
    [Ok (Some v)] — the violation reproduces; [Ok None] — it no longer
    trips (stale bundle or fixed bug); [Error] — unreadable bundle, or
    one in an older meta format. *)

val pp_bundle : Format.formatter -> bundle -> unit

(** {1 Exit-code taxonomy}

    Shared by every [pc] command so CI can key off the cause:
    [0] success, [2] usage error, [3] oracle violation, [4] internal
    error. *)

val exit_ok : int
val exit_usage : int
val exit_violation : int
val exit_internal : int
