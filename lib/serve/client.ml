open Pc_exec

(* Client side of the serve protocol: blocking RPC over a Unix-domain
   socket, plus the submit-with-backoff / wait / results conveniences
   the CLI and perfbench's serve-mixed clients are built from.

   Backoff is the engine's [Faults.backoff], with the server's hint as
   a floor on its base, so a load run — many clients hammering one
   daemon — is reproducible end to end: the k-th retry of the k-th
   client sleeps the same everywhere. *)

exception Protocol_error of string

let () =
  Printexc.register_printer (function
    | Protocol_error msg -> Some ("serve protocol error: " ^ msg)
    | _ -> None)

type conn = { fd : Unix.file_descr }

let connect path =
  (* A daemon dying mid-RPC must surface as EPIPE/Closed (which the
     reconnect path absorbs), not kill the client process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX path) with
  | () -> { fd }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let with_conn path f =
  let conn = connect path in
  Fun.protect ~finally:(fun () -> close conn) (fun () -> f conn)

let rpc conn request =
  Wire.send conn.fd (Protocol.request_to_string request);
  match Wire.recv conn.fd with
  | None -> raise Wire.Closed (* died mid-RPC; reconnectable *)
  | Some payload -> (
      match Protocol.response_of_string payload with
      | Ok resp -> resp
      | Error reason -> raise (Protocol_error reason))

(* ------------------------------------------------------------------ *)

(* Backpressure rounds a submission absorbs before giving up. *)
let max_attempts = 50

let submit ?(seed = 0) conn ~tenant ?(retries = 0) specs =
  let request = Protocol.Submit { tenant; specs; retries } in
  let rec go attempt =
    if attempt >= max_attempts then
      raise
        (Protocol_error
           (Printf.sprintf "submission still refused after %d attempts"
              max_attempts))
    else
      match rpc conn request with
      | Protocol.Accepted { id; total; known } -> (id, total, known, attempt)
      | Protocol.Retry_after { seconds; reason = _ } ->
          Unix.sleepf
            (Faults.backoff ~seed ~site:(tenant ^ ".submit") ~digest:"backoff"
               ~base:(Float.max seconds 0.02) attempt);
          go (attempt + 1)
      | Protocol.Refused { code; message } ->
          raise (Protocol_error (Printf.sprintf "%s: %s" code message))
      | _ -> raise (Protocol_error "unexpected response to submit")
  in
  go 0

let status conn ~tenant ~id =
  match rpc conn (Protocol.Status { tenant; id }) with
  | Protocol.Status_of { state; progress; _ } -> (state, progress)
  | Protocol.Refused { code; message } ->
      raise (Protocol_error (Printf.sprintf "%s: %s" code message))
  | _ -> raise (Protocol_error "unexpected response to status")

(* Seconds between two [status] polls. *)
let poll = 0.02

let wait conn ~tenant ~id =
  let rec go () =
    let state, progress = status conn ~tenant ~id in
    if state = "completed" || state = "cancelled" then (state, progress)
    else begin
      Unix.sleepf poll;
      go ()
    end
  in
  go ()

let results conn ~tenant ~id =
  match rpc conn (Protocol.Results { tenant; id }) with
  | Protocol.Results_of { results; _ } -> results
  | Protocol.Refused { code; message } ->
      raise (Protocol_error (Printf.sprintf "%s: %s" code message))
  | _ -> raise (Protocol_error "unexpected response to results")

let cancel conn ~tenant ~id =
  match rpc conn (Protocol.Cancel { tenant; id }) with
  | Protocol.Cancelled { skipped; _ } -> skipped
  | Protocol.Refused { code; message } ->
      raise (Protocol_error (Printf.sprintf "%s: %s" code message))
  | _ -> raise (Protocol_error "unexpected response to cancel")

let health conn =
  match rpc conn Protocol.Health with
  | Protocol.Health_of h -> h
  | _ -> raise (Protocol_error "unexpected response to health")

let drain conn =
  match rpc conn Protocol.Drain with
  | Protocol.Draining -> ()
  | _ -> raise (Protocol_error "unexpected response to drain")

(* ------------------------------------------------------------------ *)
(* The whole client lifecycle, restart-transparently                  *)

type run = {
  id : string;
  total : int;
  known : bool;
  backoff_rounds : int;
  reconnects : int;
  state : string;
  progress : Protocol.progress;
  outcomes : (string * (Pc_adversary.Runner.outcome, string) result) list;
}

(* Consecutive connection failures a lifecycle survives. *)
let reconnect_rounds = 40

(* Submission ids are content digests and the daemon replays its
   manifests on restart, so "reconnect and resubmit from scratch" is
   both safe (idempotent: the daemon answers [known = true] and serves
   whatever the journal already holds) and complete (jobs admitted
   before the crash finish after it). That one property makes clients
   of a crashing daemon trivial: this is the whole recovery logic. *)
let submit_and_wait ?(seed = 0) ~socket ~tenant ?(retries = 0) specs =
  let rec go round rounds_acc =
    match
      with_conn socket (fun conn ->
          let id, total, known, backoff_rounds =
            submit ~seed conn ~tenant ~retries specs
          in
          let state, progress = wait conn ~tenant ~id in
          let outcomes = results conn ~tenant ~id in
          {
            id;
            total;
            known;
            backoff_rounds = backoff_rounds + rounds_acc;
            reconnects = round;
            state;
            progress;
            outcomes;
          })
    with
    | run -> run
    | exception (Wire.Closed | Unix.Unix_error _)
      when round < reconnect_rounds ->
        Unix.sleepf
          (Faults.backoff ~seed ~site:(tenant ^ ".reconnect") ~digest:"backoff"
             ~base:0.05 round);
        go (round + 1) rounds_acc
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Load generation (CLI `pc load`)                                    *)

type load_report = {
  clients : int;
  jobs : int;
  failed : int;
  wall : float;
  latencies : float array; (* per-submission end-to-end seconds, sorted *)
  submit_retries : int;
  restarts_seen : int;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Each client thread runs its share of submissions sequentially
   through the restart-transparent lifecycle (submit with backoff →
   wait → results, reconnecting if the daemon dies under it). *)
let load ~socket ~clients ~submissions =
  let n = Array.length submissions in
  let latencies = Array.make n 0. in
  let failures = Array.make n 0 in
  let retries = Array.make (max clients 1) 0 in
  let t0 = Unix.gettimeofday () in
  let worker c =
    let i = ref c in
    while !i < n do
      let tenant, specs, job_retries = submissions.(!i) in
      let s0 = Unix.gettimeofday () in
      let run =
        submit_and_wait ~seed:c ~socket ~tenant ~retries:job_retries specs
      in
      retries.(c) <- retries.(c) + run.backoff_rounds;
      latencies.(!i) <- Unix.gettimeofday () -. s0;
      failures.(!i) <- run.progress.Protocol.failed;
      i := !i + clients
    done
  in
  let threads =
    List.init (max clients 1) (fun c -> Thread.create worker c)
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let restarts_seen =
    try with_conn socket (fun conn -> (health conn).Protocol.restarts)
    with _ -> 0
  in
  Array.sort compare latencies;
  {
    clients;
    jobs =
      Array.fold_left (fun acc (_, specs, _) -> acc + List.length specs) 0
        submissions;
    failed = Array.fold_left ( + ) 0 failures;
    wall;
    latencies;
    submit_retries = Array.fold_left ( + ) 0 retries;
    restarts_seen;
  }
