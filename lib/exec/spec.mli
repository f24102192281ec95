(** Deterministic, serialisable experiment-point descriptions.

    A spec pins down one (workload × manager × scale) point of a sweep
    as pure data: it can be hashed (for the content-addressed result
    cache), rebuilt into a fresh [Program.t] on any worker domain, and
    compared structurally across runs. *)

type size_dist = Pc_adversary.Random_workload.size_dist =
  | Uniform of { lo : int; hi : int }
  | Pow2 of { lo_log : int; hi_log : int }
  | Fixed of int

type sawtooth_pattern = Pc_adversary.Sawtooth.pattern =
  | Every_other
  | First_half
  | Random of int

type workload =
  | Pf of { ell : int option; stage1_steps : int option; maintain_density : bool }
  | Robson of { steps : int option }
  | Pw of { steps : int option }
  | Sawtooth of { rounds : int option; pattern : sawtooth_pattern }
  | Random_churn of {
      seed : int;
      churn : int;
      dist : size_dist;
      target_live : int;
    }
  | Script of { text : string }
      (** a {!Pc_adversary.Script} in its one-line syntax *)

type t = {
  workload : workload;
  manager : string;  (** a {!Pc_manager.Registry} key *)
  m : int;  (** the paper's live-space bound [M], in words *)
  n : int;  (** largest object size *)
  c : float option;  (** compaction bound; [None] = unlimited *)
}

val equal : t -> t -> bool

(** {1 Constructors} *)

val pf :
  ?ell:int ->
  ?stage1_steps:int ->
  ?maintain_density:bool ->
  c:float ->
  manager:string ->
  m:int ->
  n:int ->
  unit ->
  t

val robson : ?steps:int -> ?c:float -> manager:string -> m:int -> n:int -> unit -> t
val pw : ?steps:int -> ?c:float -> manager:string -> m:int -> n:int -> unit -> t

val sawtooth :
  ?rounds:int ->
  ?pattern:sawtooth_pattern ->
  ?c:float ->
  manager:string ->
  m:int ->
  n:int ->
  unit ->
  t

val random_churn :
  ?seed:int ->
  ?churn:int ->
  ?c:float ->
  manager:string ->
  m:int ->
  dist:size_dist ->
  target_live:int ->
  unit ->
  t
(** [n] is derived from [dist]. *)

val script : manager:string -> string -> t
(** An unbudgeted script; [m] and [n] are the parsed script's own peak
    live words and largest size. Raises {!Pc_adversary.Script.Bad_script} on a script
    that does not parse or validate. *)

(** {1 Realisation} *)

val build : ?pf_audit:bool -> t -> Pc_adversary.Program.t
(** Construct a fresh program for this spec. Raises [Invalid_argument]
    on parameters the workload rejects (the engine captures this per
    job). [pf_audit] (default false) additionally enables PF's
    internal Claim 4.16 potential audit — expensive, and not part of
    the spec's identity (it changes what is checked, never the
    outcome). *)

val manager : t -> Pc_manager.Manager.t
(** Fresh manager instance. Raises [Invalid_argument] on an unknown
    key. *)

val run :
  ?audit:Pc_audit.Oracle.level ->
  ?broken_budget:bool ->
  ?failures_dir:string ->
  t ->
  Pc_adversary.Runner.outcome
(** Build the program and a fresh manager and run them under the
    spec's compaction bound: with {!record}, the one place a job meets
    {!Pc_adversary.Runner}. [audit] attaches the oracle layer (at
    [Full] also PF's Claim 4.16 audit, see {!build}); full-strength PF
    (no [stage1_steps], density maintained) also gets Theorem 1's
    floor. [broken_budget] (default false) lifts the enforced budget
    while the oracle still audits the spec's [c] — the audit drill's
    model of a manager whose budget debit is broken. Raises what
    {!build}, {!manager} and the runner raise. *)

val record : t -> Pc_adversary.Runner.outcome * Pc_heap.Trace.t
(** {!run} without audit, also returning the run's heap event trace
    (see {!Pc_adversary.Runner.run_recorded}). *)

(** {1 Identity} *)

val key : t -> string
(** Canonical human-readable identity; equal specs have equal keys. *)

val digest : t -> string
(** Hex digest of {!key} plus the cache format version — the result
    cache's file name. *)

val cache_format : int
(** Bumped when execution semantics change enough to invalidate every
    cached outcome. *)

val pp : Format.formatter -> t -> unit

(** {1 Serialisation} *)

exception Bad_spec of string

val to_json : t -> Pc_json.Json.t

val of_json : Pc_json.Json.t -> t
(** Raises {!Bad_spec} or [Pc_json.Json.Parse_error] on malformed input. *)
