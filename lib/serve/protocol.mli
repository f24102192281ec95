(** The serve daemon's wire vocabulary (one JSON object per
    {!Wire} frame) and its versioned codecs.

    Decoding is {e total}: malformed JSON, a missing or foreign
    version, an unknown op and ill-typed fields all come back as
    [Error reason] — this layer parses bytes from arbitrary peers and
    must never raise on them. Spec and outcome payloads reuse the
    result cache's bit-exact (de)serialisers, so an outcome fetched
    over the socket is byte-identical to one computed locally. *)

val version : int
(** Bumped on incompatible wire changes; both sides refuse frames
    carrying any other version. *)

type submit = {
  tenant : string;
  specs : Pc_exec.Spec.t list;
  retries : int;  (** transient-failure retry budget per job *)
}

type request =
  | Submit of submit
  | Status of { tenant : string; id : string }
  | Cancel of { tenant : string; id : string }
      (** queued jobs of the submission are skipped; in-flight jobs
          finish (a domain cannot be safely preempted) *)
  | Results of { tenant : string; id : string }
  | Health
  | Drain

type progress = {
  total : int;
  completed : int;  (** journaled, whether [Ok] or [Error] *)
  failed : int;  (** the [Error] subset of [completed] *)
  skipped : int;  (** queued jobs dropped by a cancel *)
}

type health = {
  pending : int;  (** admitted jobs not yet picked up by a worker *)
  in_flight : int;
  workers : int;
  restarts : int;  (** worker domains respawned since boot *)
  tenants : int;
  submissions : int;  (** accepted (incl. replayed) since boot *)
  jobs_done : int;
  cache_hits : int;
  executed : int;
  draining : bool;
}

type response =
  | Accepted of { id : string; total : int; known : bool }
      (** [known]: the submission id was already registered —
          resubmission is idempotent *)
  | Retry_after of { seconds : float; reason : string }
      (** backpressure: the admission queue or the tenant quota is
          full, or the daemon is draining; retry after [seconds] *)
  | Status_of of { id : string; state : string; progress : progress }
      (** [state] is ["queued"], ["running"], ["completed"] or
          ["cancelled"] *)
  | Results_of of {
      id : string;
      results :
        (string * (Pc_adversary.Runner.outcome, string) result) list;
          (** canonical spec key → journaled outcome, submission
              order; only completed jobs appear *)
    }
  | Cancelled of { id : string; skipped : int }
  | Health_of of health
  | Draining
  | Refused of { code : string; message : string }
      (** a well-formed request the daemon will not honour (bad
          tenant, unknown id, submit while draining) *)

val request_to_string : request -> string
val request_of_string : string -> (request, string) result
val response_to_string : response -> string
val response_of_string : string -> (response, string) result

val health_fields : health -> (string * Pc_json.Json.t) list
(** The fields a [Health_of] response carries after its type tag, in
    wire order — also the body of [pc health --json]. *)

val tenant_ok : string -> bool
(** Tenant names become directory components; restricted to
    [\[A-Za-z0-9._-\]], at most 64 chars, not ["."] or [".."]. *)
