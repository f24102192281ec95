(** Client side of the serve protocol: blocking RPC over a Unix-domain
    socket plus the submit/wait/results conveniences the CLI and
    perfbench's serve-mixed clients are built from. *)

exception Protocol_error of string
(** The server answered something the request cannot interpret, or
    refused it outright. A printer is registered. *)

type conn

val connect : string -> conn
(** Raises [Unix.Unix_error] when the socket is absent or refusing. *)

val close : conn -> unit
val with_conn : string -> (conn -> 'a) -> 'a

val rpc : conn -> Protocol.request -> Protocol.response
(** One framed request, one framed response. *)

val submit :
  ?seed:int ->
  ?max_attempts:int ->
  conn ->
  tenant:string ->
  ?retries:int ->
  Pc_exec.Spec.t list ->
  string * int * bool * int
(** Submit, sleeping {!Pc_exec.Faults.backoff} (the engine's seeded
    backoff, its base floored by the server's hint) after each
    [Retry_after], so load runs reproduce. Returns
    [(id, total, known, backoff_rounds)]. Raises {!Protocol_error}
    on [Refused] or after [max_attempts] (default 50) rounds. *)

val status : conn -> tenant:string -> id:string -> string * Protocol.progress
val wait :
  ?poll:float -> conn -> tenant:string -> id:string -> string * Protocol.progress
(** Poll {!status} until ["completed"] or ["cancelled"]. *)

val results :
  conn ->
  tenant:string ->
  id:string ->
  (string * (Pc_adversary.Runner.outcome, string) result) list

val cancel : conn -> tenant:string -> id:string -> int
val health : conn -> Protocol.health
val drain : conn -> unit

(** {1 The whole lifecycle, restart-transparently} *)

type run = {
  id : string;
  total : int;
  known : bool;  (** the daemon had this submission already *)
  backoff_rounds : int;  (** backpressure rounds absorbed *)
  reconnects : int;  (** times the daemon died under us *)
  state : string;
  progress : Protocol.progress;
  outcomes : (string * (Pc_adversary.Runner.outcome, string) result) list;
}

val submit_and_wait :
  ?seed:int ->
  ?max_attempts:int ->
  ?poll:float ->
  ?reconnect_rounds:int ->
  socket:string ->
  tenant:string ->
  ?retries:int ->
  Pc_exec.Spec.t list ->
  run
(** Submit, wait and fetch results; when the daemon dies mid-exchange,
    back off, reconnect and {e resubmit} — safe because submission ids
    are content digests (the daemon answers [known] and serves what
    its journal already holds), complete because the daemon replays
    its manifests on restart. Raises after [reconnect_rounds]
    (default 40) consecutive connection failures. *)

(** {1 Load generation} *)

type load_report = {
  clients : int;
  jobs : int;
  failed : int;
  wall : float;
  latencies : float array;  (** per-submission end-to-end s, sorted *)
  submit_retries : int;  (** backoff rounds across all clients *)
  restarts_seen : int;  (** server worker restarts at end of run *)
}

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [(0, 1]]; [0.] when empty. *)

val load :
  socket:string ->
  clients:int ->
  submissions:(string * Pc_exec.Spec.t list * int) array ->
  load_report
(** Drive [(tenant, specs, retries)] submissions through [clients]
    concurrent client threads (one connection each, round-robin
    assignment), each doing submit → wait → results sequentially. *)
