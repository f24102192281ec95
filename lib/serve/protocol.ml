open Pc_exec
open Pc_json
open Pc_adversary

(* The wire vocabulary of the serve daemon: request/response ADTs and
   their versioned JSON codecs. Every frame is one JSON object with a
   ["v"] field; decoding is total — malformed JSON, a missing/foreign
   version, an unknown op, or ill-typed fields all come back as
   [Error reason], never an exception — because this layer parses
   bytes from arbitrary peers. Spec and outcome payloads reuse the
   exact (de)serialisers of the result cache, so a daemon round-trip
   is bit-identical to a local sweep. *)

let version = 1

(* ------------------------------------------------------------------ *)

type submit = {
  tenant : string;
  specs : Spec.t list;
  retries : int;
}

type request =
  | Submit of submit
  | Status of { tenant : string; id : string }
  | Cancel of { tenant : string; id : string }
  | Results of { tenant : string; id : string }
  | Health
  | Drain

type progress = {
  total : int;
  completed : int;  (* journaled, whether Ok or Error *)
  failed : int;  (* the Error subset of [completed] *)
  skipped : int;  (* queued jobs dropped by a cancel *)
}

type health = {
  pending : int;
  in_flight : int;
  workers : int;
  restarts : int;
  tenants : int;
  submissions : int;
  jobs_done : int;
  cache_hits : int;
  executed : int;
  draining : bool;
}

type response =
  | Accepted of { id : string; total : int; known : bool }
  | Retry_after of { seconds : float; reason : string }
  | Status_of of { id : string; state : string; progress : progress }
  | Results_of of {
      id : string;
      results : (string * (Runner.outcome, string) result) list;
    }
  | Cancelled of { id : string; skipped : int }
  | Health_of of health
  | Draining
  | Refused of { code : string; message : string }

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)

let j_submit { tenant; specs; retries } =
  [
    ("op", Json.String "submit");
    ("tenant", Json.String tenant);
    ("specs", Json.List (List.map Spec.to_json specs));
    ("retries", Json.Int retries);
  ]

let j_ref op tenant id =
  [
    ("op", Json.String op);
    ("tenant", Json.String tenant);
    ("id", Json.String id);
  ]

let versioned fields = Json.Obj (("v", Json.Int version) :: fields)

let request_to_string req =
  Json.to_string
    (versioned
       (match req with
       | Submit s -> j_submit s
       | Status { tenant; id } -> j_ref "status" tenant id
       | Cancel { tenant; id } -> j_ref "cancel" tenant id
       | Results { tenant; id } -> j_ref "results" tenant id
       | Health -> [ ("op", Json.String "health") ]
       | Drain -> [ ("op", Json.String "drain") ]))

let j_progress { total; completed; failed; skipped } =
  Json.Obj
    [
      ("total", Json.Int total);
      ("completed", Json.Int completed);
      ("failed", Json.Int failed);
      ("skipped", Json.Int skipped);
    ]

let j_result = function
  | Ok outcome -> [ ("ok", Cache.outcome_to_json outcome) ]
  | Error msg -> [ ("error", Json.String msg) ]

let health_fields h =
  [
    ("pending", Json.Int h.pending);
    ("in_flight", Json.Int h.in_flight);
    ("workers", Json.Int h.workers);
    ("restarts", Json.Int h.restarts);
    ("tenants", Json.Int h.tenants);
    ("submissions", Json.Int h.submissions);
    ("jobs_done", Json.Int h.jobs_done);
    ("cache_hits", Json.Int h.cache_hits);
    ("executed", Json.Int h.executed);
    ("draining", Json.Bool h.draining);
  ]

let response_to_string resp =
  Json.to_string
    (versioned
       (match resp with
       | Accepted { id; total; known } ->
           [
             ("type", Json.String "accepted");
             ("id", Json.String id);
             ("total", Json.Int total);
             ("known", Json.Bool known);
           ]
       | Retry_after { seconds; reason } ->
           [
             ("type", Json.String "retry-after");
             ("seconds", Json.Float seconds);
             ("reason", Json.String reason);
           ]
       | Status_of { id; state; progress } ->
           [
             ("type", Json.String "status");
             ("id", Json.String id);
             ("state", Json.String state);
             ("progress", j_progress progress);
           ]
       | Results_of { id; results } ->
           [
             ("type", Json.String "results");
             ("id", Json.String id);
             ( "results",
               Json.List
                 (List.map
                    (fun (key, r) ->
                      Json.Obj (("key", Json.String key) :: j_result r))
                    results) );
           ]
       | Cancelled { id; skipped } ->
           [
             ("type", Json.String "cancelled");
             ("id", Json.String id);
             ("skipped", Json.Int skipped);
           ]
       | Health_of h -> ("type", Json.String "health") :: health_fields h
       | Draining -> [ ("type", Json.String "draining") ]
       | Refused { code; message } ->
           [
             ("type", Json.String "refused");
             ("code", Json.String code);
             ("message", Json.String message);
           ]))

(* ------------------------------------------------------------------ *)
(* Decoding — total: every failure is an [Error reason]               *)

let ( let* ) = Result.bind

let parse s =
  match Json.of_string s with
  | j -> Ok j
  | exception Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  | exception _ -> Error "malformed JSON"

let check_version j =
  match Json.member "v" j with
  | Some v when Json.to_int v = Some version -> Ok ()
  | Some v ->
      Error
        (Printf.sprintf "protocol version mismatch: got %s, speak %d"
           (Json.to_string v) version)
  | None -> Error "missing protocol version"

let str field j =
  match Option.bind (Json.member field j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string %S" field)

let int_or field ~default j =
  match Json.member field j with
  | None -> Ok default
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "non-integer %S" field))

let ref_of j op k =
  let* tenant = str "tenant" j in
  let* id = str "id" j in
  ignore op;
  Ok (k ~tenant ~id)

let specs_of j =
  match Json.member "specs" j with
  | Some (Json.List l) -> (
      try Ok (List.map Spec.of_json l) with
      | Spec.Bad_spec msg -> Error ("bad spec: " ^ msg)
      | Json.Parse_error msg -> Error ("bad spec: " ^ msg))
  | Some _ -> Error "non-list \"specs\""
  | None -> Error "missing \"specs\""

let request_of_string s =
  let* j = parse s in
  let* () = check_version j in
  let* op = str "op" j in
  match op with
  | "submit" ->
      let* tenant = str "tenant" j in
      let* specs = specs_of j in
      let* retries = int_or "retries" ~default:0 j in
      if specs = [] then Error "empty spec list"
      else Ok (Submit { tenant; specs; retries })
  | "status" -> ref_of j op (fun ~tenant ~id -> Status { tenant; id })
  | "cancel" -> ref_of j op (fun ~tenant ~id -> Cancel { tenant; id })
  | "results" -> ref_of j op (fun ~tenant ~id -> Results { tenant; id })
  | "health" -> Ok Health
  | "drain" -> Ok Drain
  | op -> Error (Printf.sprintf "unknown op %S" op)

let progress_of j =
  let* total = int_or "total" ~default:(-1) j in
  let* completed = int_or "completed" ~default:(-1) j in
  let* failed = int_or "failed" ~default:(-1) j in
  let* skipped = int_or "skipped" ~default:(-1) j in
  if total < 0 || completed < 0 || failed < 0 || skipped < 0 then
    Error "malformed progress"
  else Ok { total; completed; failed; skipped }

let result_of j =
  match (Json.member "ok" j, Json.member "error" j) with
  | Some o, None -> (
      match Cache.outcome_of_json o with
      | outcome -> Ok (Ok outcome)
      | exception _ -> Error "malformed outcome")
  | None, Some (Json.String msg) -> Ok (Error msg)
  | _ -> Error "result carries neither \"ok\" nor \"error\""

let response_of_string s =
  let* j = parse s in
  let* () = check_version j in
  let* ty = str "type" j in
  match ty with
  | "accepted" ->
      let* id = str "id" j in
      let* total = int_or "total" ~default:(-1) j in
      let known =
        Option.bind (Json.member "known" j) Json.to_bool
        |> Option.value ~default:false
      in
      if total < 0 then Error "missing \"total\""
      else Ok (Accepted { id; total; known })
  | "retry-after" ->
      let seconds =
        Option.bind (Json.member "seconds" j) Json.to_float
        |> Option.value ~default:0.5
      in
      let reason =
        Option.bind (Json.member "reason" j) Json.to_string_opt
        |> Option.value ~default:"busy"
      in
      Ok (Retry_after { seconds; reason })
  | "status" ->
      let* id = str "id" j in
      let* state = str "state" j in
      let* progress =
        match Json.member "progress" j with
        | Some p -> progress_of p
        | None -> Error "missing \"progress\""
      in
      Ok (Status_of { id; state; progress })
  | "results" ->
      let* id = str "id" j in
      let* items =
        match Json.member "results" j with
        | Some (Json.List l) -> Ok l
        | _ -> Error "missing \"results\""
      in
      let* results =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* key = str "key" item in
            let* r = result_of item in
            Ok ((key, r) :: acc))
          (Ok []) items
      in
      Ok (Results_of { id; results = List.rev results })
  | "cancelled" ->
      let* id = str "id" j in
      let* skipped = int_or "skipped" ~default:0 j in
      Ok (Cancelled { id; skipped })
  | "health" ->
      let* pending = int_or "pending" ~default:(-1) j in
      let* in_flight = int_or "in_flight" ~default:(-1) j in
      let* workers = int_or "workers" ~default:(-1) j in
      let* restarts = int_or "restarts" ~default:0 j in
      let* tenants = int_or "tenants" ~default:0 j in
      let* submissions = int_or "submissions" ~default:0 j in
      let* jobs_done = int_or "jobs_done" ~default:0 j in
      let* cache_hits = int_or "cache_hits" ~default:0 j in
      let* executed = int_or "executed" ~default:0 j in
      let draining =
        Option.bind (Json.member "draining" j) Json.to_bool
        |> Option.value ~default:false
      in
      if pending < 0 || in_flight < 0 || workers < 0 then
        Error "malformed health"
      else
        Ok
          (Health_of
             {
               pending;
               in_flight;
               workers;
               restarts;
               tenants;
               submissions;
               jobs_done;
               cache_hits;
               executed;
               draining;
             })
  | "draining" -> Ok Draining
  | "refused" ->
      let* code = str "code" j in
      let* message = str "message" j in
      Ok (Refused { code; message })
  | ty -> Error (Printf.sprintf "unknown response type %S" ty)

(* ------------------------------------------------------------------ *)

let tenant_ok name =
  name <> "" && name <> "." && name <> ".."
  && String.length name <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       name
