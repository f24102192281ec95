(* The serve daemon: wire framing and protocol codecs must be total
   against arbitrary peers, the lockfile must fail fast on a live
   foreign holder and break stale ones, the supervision tree must
   restart killed workers without losing or duplicating a job (and,
   as the batch engine's map, keep order and re-raise the first task
   failure), and a daemon killed at an arbitrary point must come back
   serving byte-identical results with every job completed exactly
   once. *)

open Pc_exec
open Pc_serve
module Json = Pc_json.Json

let replace_all ~sub ~by s =
  let n = String.length sub in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then begin
      Buffer.add_string buf by;
      i := !i + n
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pc_serve_test_%d_%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir dir 0o755;
    dir

let eventually ?(timeout = 5.) ?(poll = 0.01) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf poll;
      go ()
    end
  in
  go ()

(* Cheap, deterministic, pairwise-distinct specs: distinct seeds give
   distinct digests, so submission ids and journal lines never
   collide across tests. *)
let churn_spec seed =
  Spec.random_churn ~seed ~churn:160 ~c:8.0 ~manager:"first-fit"
    ~m:(1 lsl 9)
    ~dist:(Spec.Pow2 { lo_log = 0; hi_log = 3 })
    ~target_live:(1 lsl 8) ()

let specs_from base count = List.init count (fun k -> churn_spec (base + k))

(* What an uninterrupted local sweep computes — the bytes every serve
   path must reproduce. *)
let reference specs =
  let results, summary = Engine.run ~jobs:1 specs in
  if summary.Engine.failed > 0 then
    Alcotest.failf "reference sweep failed %d job(s)" summary.Engine.failed;
  List.map
    (fun (r : Engine.job_result) -> (Spec.key r.Engine.spec, r.Engine.result))
    results

let sample_outcome =
  lazy (Engine.outcome_exn (Engine.execute (churn_spec 1)))

(* ------------------------------------------------------------------ *)
(* Wire framing                                                       *)

let header n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  b

let write_bytes fd b = ignore (Unix.write fd b 0 (Bytes.length b))

let test_wire_round_trip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let payloads = [ "hello"; ""; String.make 50_000 'x'; "{\"v\":1}" ] in
  List.iter (Wire.send a) payloads;
  List.iter
    (fun p ->
      match Wire.recv b with
      | Some got -> Alcotest.(check string) "frame round-trips" p got
      | None -> Alcotest.fail "unexpected clean close")
    payloads;
  Unix.close a;
  Alcotest.(check bool)
    "EOF at a frame boundary is a clean close" true (Wire.recv b = None);
  Unix.close b

let test_wire_eof_mid_frame () =
  (* EOF inside the header... *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  write_bytes a (Bytes.sub (header 12) 0 2);
  Unix.close a;
  (match Wire.recv b with
  | exception Wire.Closed -> ()
  | _ -> Alcotest.fail "mid-header EOF must raise Closed");
  Unix.close b;
  (* ... and inside the payload are both mid-frame errors. *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  write_bytes a (header 10);
  write_bytes a (Bytes.of_string "abc");
  Unix.close a;
  (match Wire.recv b with
  | exception Wire.Closed -> ()
  | _ -> Alcotest.fail "mid-payload EOF must raise Closed");
  Unix.close b

let test_wire_oversized () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  write_bytes a (header (Wire.max_frame + 1));
  (match Wire.recv b with
  | exception Wire.Oversized n ->
      Alcotest.(check int) "announced length reported" (Wire.max_frame + 1) n
  | _ -> Alcotest.fail "oversized frame must be refused");
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Protocol codecs                                                    *)

let test_request_round_trip () =
  let requests =
    [
      Protocol.Submit
        { tenant = "alice"; specs = specs_from 10 2; retries = 2 };
      Protocol.Submit { tenant = "b0b_.-"; specs = specs_from 20 1; retries = 0 };
      Protocol.Status { tenant = "t"; id = "deadbeef" };
      Protocol.Cancel { tenant = "t"; id = "deadbeef" };
      Protocol.Results { tenant = "t"; id = "deadbeef" };
      Protocol.Health;
      Protocol.Drain;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Ok req' ->
          Alcotest.(check bool) "request round-trips" true (req = req')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    requests

let test_response_round_trip () =
  let progress =
    { Protocol.total = 5; completed = 3; failed = 1; skipped = 0 }
  in
  let responses =
    [
      Protocol.Accepted { id = "abc"; total = 7; known = true };
      Protocol.Retry_after { seconds = 1.25; reason = "queue full" };
      Protocol.Status_of { id = "abc"; state = "running"; progress };
      Protocol.Results_of
        {
          id = "abc";
          results =
            [ ("k1", Ok (Lazy.force sample_outcome)); ("k2", Error "boom") ];
        };
      Protocol.Cancelled { id = "abc"; skipped = 4 };
      Protocol.Health_of
        {
          Protocol.pending = 3;
          in_flight = 2;
          workers = 4;
          restarts = 1;
          tenants = 2;
          submissions = 9;
          jobs_done = 40;
          cache_hits = 11;
          executed = 29;
          draining = false;
        };
      Protocol.Draining;
      Protocol.Refused { code = "bad-tenant"; message = "nope" };
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_string (Protocol.response_to_string resp) with
      | Ok resp' ->
          Alcotest.(check bool) "response round-trips" true (resp = resp')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    responses

let test_garbage_rejected () =
  let bad_requests =
    [
      "";
      "not json";
      "[1,2]";
      "{}";
      "{\"v\":2,\"op\":\"health\"}";
      "{\"v\":1}";
      "{\"v\":1,\"op\":\"nope\"}";
      "{\"v\":1,\"op\":\"submit\",\"tenant\":\"t\",\"specs\":[]}";
      "{\"v\":1,\"op\":\"submit\",\"tenant\":\"t\",\"specs\":[{\"bogus\":1}]}";
      "{\"v\":1,\"op\":\"status\",\"tenant\":\"t\"}";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "request %S rejected" s)
        true
        (Result.is_error (Protocol.request_of_string s)))
    bad_requests;
  let bad_responses =
    [ ""; "{\"v\":1}"; "{\"v\":1,\"type\":\"zzz\"}"; "{\"v\":1,\"type\":\"accepted\"}" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "response %S rejected" s)
        true
        (Result.is_error (Protocol.response_of_string s)))
    bad_responses

let test_tenant_names () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%S accepted" name)
        true (Protocol.tenant_ok name))
    [ "alice"; "team-7"; "a.b_c"; String.make 64 'x' ];
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" name)
        false (Protocol.tenant_ok name))
    [ ""; "."; ".."; "a/b"; "a b"; "p$q"; String.make 65 'x' ]

(* ------------------------------------------------------------------ *)
(* Store: durable manifests                                           *)

let test_store_round_trip () =
  let state_dir = Filename.concat (fresh_dir ()) "state" in
  let specs = specs_from 30 2 in
  let m = Store.make ~tenant:"alice" ~specs ~retries:2 in
  Alcotest.(check string)
    "manifest id is the sweep digest" (Store.submission_id specs) m.Store.id;
  Store.save ~state_dir m;
  match Store.load_all ~state_dir with
  | [ m' ] -> Alcotest.(check bool) "manifest round-trips" true (m = m')
  | ms -> Alcotest.failf "expected 1 manifest, got %d" (List.length ms)

(* Submissions from v1 clients that still send a per-attempt
   ["timeout"] decode with the field dropped, and so do manifests that
   carry one on disk. *)
let test_legacy_timeout_dropped () =
  let specs = specs_from 50 2 in
  let frame =
    Json.to_string
      (Json.Obj
         [
           ("v", Json.Int 1);
           ("op", Json.String "submit");
           ("tenant", Json.String "alice");
           ("specs", Json.List (List.map Spec.to_json specs));
           ("retries", Json.Int 1);
           ("timeout", Json.Float 0.25);
         ])
  in
  let s =
    match Protocol.request_of_string frame with
    | Ok (Protocol.Submit s) -> s
    | Ok _ -> Alcotest.fail "decoded as another op"
    | Error msg -> Alcotest.failf "v1 submit with a timeout refused: %s" msg
  in
  Alcotest.(check int) "retries kept" 1 s.Protocol.retries;
  let state_dir = Filename.concat (fresh_dir ()) "state" in
  let m = Store.make ~tenant:s.tenant ~specs:s.specs ~retries:s.retries in
  Store.save ~state_dir m;
  let path =
    List.fold_left Filename.concat state_dir
      [ "tenants"; "alice"; "submissions"; m.Store.id ^ ".json" ]
  in
  let saved = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check bool)
    "saved manifest has no timeout key" true
    (Json.member "timeout" saved = None);
  (match saved with
  | Json.Obj fields ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Json.to_string (Json.Obj (fields @ [ ("timeout", Json.Float 1.5) ]))))
  | _ -> Alcotest.fail "manifest is not an object");
  match Store.load_all ~state_dir with
  | [ m' ] ->
      Alcotest.(check string) "same id on reload" m.Store.id m'.Store.id;
      Alcotest.(check bool) "same manifest on reload" true (m = m')
  | ms -> Alcotest.failf "expected 1 manifest, got %d" (List.length ms)

let test_store_skips_tampered () =
  let state_dir = Filename.concat (fresh_dir ()) "state" in
  let good = Store.make ~tenant:"alice" ~specs:(specs_from 40 2) ~retries:0 in
  Store.save ~state_dir good;
  let dir =
    List.fold_left Filename.concat state_dir [ "tenants"; "alice"; "submissions" ]
  in
  (* Unparseable garbage... *)
  Out_channel.with_open_bin (Filename.concat dir "zz.json") (fun oc ->
      Out_channel.output_string oc "not json");
  (* ... and a tampered manifest: edit the specs so the embedded id no
     longer matches the content digest. *)
  let good_path = Filename.concat dir (good.Store.id ^ ".json") in
  let content = In_channel.with_open_bin good_path In_channel.input_all in
  let tampered = replace_all ~sub:"first-fit" ~by:"best-fit" content in
  Out_channel.with_open_bin (Filename.concat dir "tampered.json") (fun oc ->
      Out_channel.output_string oc tampered);
  match Store.load_all ~state_dir with
  | [ m ] ->
      Alcotest.(check string) "only the intact manifest loads" good.Store.id m.Store.id
  | ms -> Alcotest.failf "expected 1 manifest, got %d" (List.length ms)

(* ------------------------------------------------------------------ *)
(* Lockfile                                                           *)

let test_lockfile_self_stale () =
  let path = Filename.concat (fresh_dir ()) "serve.lock" in
  let l1 = Lockfile.acquire path in
  Alcotest.(check bool) "lock file exists" true (Sys.file_exists path);
  (* Our own PID in a lock counts as stale (a previous incarnation in
     this process image cannot be an independent live owner) — this is
     exactly what lets an in-process restart drill recover. *)
  let l2 = Lockfile.acquire path in
  Lockfile.release l2;
  Alcotest.(check bool) "released" true (not (Sys.file_exists path));
  Lockfile.release l1 (* never raises, even with the file gone *)

let test_lockfile_live_and_dead () =
  let path = Filename.concat (fresh_dir ()) "serve.lock" in
  let pid =
    Unix.create_process "sleep" [| "sleep"; "30" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (string_of_int pid ^ "\n"));
      (* A live foreign holder must refuse us... *)
      (match Lockfile.acquire path with
      | exception Lockfile.Locked { pid = p; _ } ->
          Alcotest.(check int) "holder pid reported" pid p
      | l ->
          Lockfile.release l;
          Alcotest.fail "acquired over a live foreign holder");
      (* ... and once it is dead and reaped, the lock is stale. *)
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      let l = Lockfile.acquire path in
      Alcotest.(check string) "stale lock broken and reacquired" path (Lockfile.path l);
      Lockfile.release l)

(* ------------------------------------------------------------------ *)
(* Supervision tree                                                   *)

let test_map_array_order () =
  let items = Array.init 100 (fun i -> i) in
  let doubled = Supervisor.map_array ~jobs:4 (fun i -> 2 * i) items in
  Alcotest.(check (array int))
    "order preserved under parallel map"
    (Array.map (fun i -> 2 * i) items)
    doubled

(* Task 2 raises late and task 7 early; the earlier one in submission
   order is re-raised, and only once every other task has landed. *)
let test_map_array_first_failure () =
  let landed = Atomic.make 0 in
  let task i =
    if i = 2 then begin
      Unix.sleepf 0.02;
      failwith "task 2"
    end
    else if i = 7 then failwith "task 7"
    else Atomic.incr landed
  in
  match Supervisor.map_array ~jobs:3 task (Array.init 10 Fun.id) with
  | _ -> Alcotest.fail "a raising task must make map_array raise"
  | exception Failure msg ->
      Alcotest.(check string) "earlier task's exception" "task 2" msg;
      Alcotest.(check int) "every other task landed first" 8
        (Atomic.get landed)

let test_supervisor_runs_jobs () =
  let m = Mutex.create () in
  let finished = ref [] in
  let pool =
    Supervisor.create ~workers:2 (fun j ->
        Mutex.lock m;
        finished := j :: !finished;
        Mutex.unlock m)
  in
  for j = 0 to 19 do
    Supervisor.push pool j
  done;
  Supervisor.drain pool;
  Supervisor.shutdown pool;
  Alcotest.(check (list int))
    "every job ran exactly once"
    (List.init 20 Fun.id)
    (List.sort compare !finished);
  Alcotest.(check int) "no restarts" 0 (Supervisor.restarts pool);
  Alcotest.(check bool) "not aborted" false (Supervisor.aborted pool)

let test_supervisor_restarts_dead_worker () =
  let m = Mutex.create () in
  let seen = Hashtbl.create 16 in
  let finished = ref [] in
  let restarted = ref [] in
  let exec j =
    let first =
      Mutex.lock m;
      let n = Option.value ~default:0 (Hashtbl.find_opt seen j) in
      Hashtbl.replace seen j (n + 1);
      Mutex.unlock m;
      n = 0
    in
    if first && j mod 3 = 0 then failwith (Printf.sprintf "worker died on %d" j)
    else begin
      Mutex.lock m;
      finished := j :: !finished;
      Mutex.unlock m
    end
  in
  let pool =
    Supervisor.create
      ~on_restart:(fun j ->
        restarted := j :: !restarted (* monitor holds the pool mutex *))
      ~workers:2 exec
  in
  for j = 0 to 8 do
    Supervisor.push pool j
  done;
  Supervisor.drain pool;
  Supervisor.shutdown pool;
  Alcotest.(check (list int))
    "every job finished exactly once despite worker deaths"
    (List.init 9 Fun.id)
    (List.sort compare !finished);
  Alcotest.(check (list int))
    "exactly the poisoned jobs were requeued" [ 0; 3; 6 ]
    (List.sort compare !restarted);
  Alcotest.(check int) "one respawn per death" 3 (Supervisor.restarts pool);
  Alcotest.(check bool) "not aborted" false (Supervisor.aborted pool)

exception Boom

let test_supervisor_fatal_aborts () =
  let fatal_seen = Atomic.make 0 in
  let pool =
    Supervisor.create
      ~fatal:(function Boom -> true | _ -> false)
      ~on_fatal:(fun _ -> Atomic.incr fatal_seen)
      ~workers:2
      (fun j -> if j = 3 then raise Boom else Unix.sleepf 0.002)
  in
  for j = 0 to 7 do
    Supervisor.push pool j
  done;
  Supervisor.drain pool;
  Alcotest.(check bool) "aborted" true (Supervisor.aborted pool);
  Alcotest.(check bool)
    "fatal exception recorded" true
    (Supervisor.fatal_exn pool = Some Boom);
  Alcotest.(check bool)
    "on_fatal fired exactly once" true
    (eventually (fun () -> Atomic.get fatal_seen = 1));
  (match Supervisor.push pool 99 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "push after abort must be refused");
  Supervisor.shutdown pool

(* ------------------------------------------------------------------ *)
(* The daemon end to end (in-process)                                 *)

let with_server ?faults ?(workers = 2) ?queue_cap ?tenant_cap f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "pc.sock" in
  let state_dir = Filename.concat dir "state" in
  let cfg =
    Server.config ~workers ?queue_cap ?tenant_cap ?faults ~socket ~state_dir ()
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      try
        Server.drain t;
        ignore (Server.wait t)
      with _ -> ())
    (fun () -> f ~socket ~state_dir t)

let journal_digests path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match
           Option.bind (Json.member "digest" (Json.of_string line))
             Json.to_string_opt
         with
         | Some d -> d
         | None | (exception _) ->
             Alcotest.failf "unparseable journal line: %s" line)

(* Exactly-once, verified at the byte level: the journal of a
   submission holds exactly one line per spec, no duplicates, no
   strays. *)
let check_exactly_once ~state_dir ~tenant specs =
  let dir = Store.journal_dir ~state_dir tenant in
  let ds = journal_digests (Checkpoint.path ~dir specs) in
  Alcotest.(check (list string))
    (tenant ^ ": journal holds exactly one line per job")
    (List.sort compare (List.map Spec.digest specs))
    (List.sort compare ds)

let test_submit_roundtrip_and_idempotence () =
  with_server (fun ~socket ~state_dir t ->
      let specs = specs_from 100 3 in
      let expected = reference specs in
      let run = Client.submit_and_wait ~socket ~tenant:"alice" specs in
      Alcotest.(check string) "completed" "completed" run.Client.state;
      Alcotest.(check bool) "fresh submission" false run.Client.known;
      Alcotest.(check int) "all jobs done" 3 run.Client.progress.Protocol.completed;
      Alcotest.(check int) "no failures" 0 run.Client.progress.Protocol.failed;
      Alcotest.(check bool)
        "daemon results byte-identical to a local sweep" true
        (run.Client.outcomes = expected);
      (* Resubmission is idempotent: same id, known=true, same bytes,
         nothing re-executed. *)
      let again = Client.submit_and_wait ~socket ~tenant:"alice" specs in
      Alcotest.(check bool) "deduplicated" true again.Client.known;
      Alcotest.(check string) "same id" run.Client.id again.Client.id;
      Alcotest.(check bool)
        "identical results on resubmit" true (again.Client.outcomes = expected);
      let h = Client.with_conn socket Client.health in
      Alcotest.(check int) "one submission registered" 1 h.Protocol.submissions;
      Alcotest.(check int) "three jobs done" 3 h.Protocol.jobs_done;
      Alcotest.(check int) "all fresh executions" 3 h.Protocol.executed;
      Alcotest.(check int) "one tenant" 1 h.Protocol.tenants;
      Alcotest.(check int) "no worker deaths" 0 (Server.restarts t);
      check_exactly_once ~state_dir ~tenant:"alice" specs)

let test_rejects_bad_peers () =
  with_server (fun ~socket ~state_dir:_ _t ->
      (* Bad tenant name. *)
      Client.with_conn socket (fun conn ->
          (match
             Client.rpc conn
               (Protocol.Submit
                  {
                    tenant = "../evil";
                    specs = specs_from 110 1;
                    retries = 0;
                  })
           with
          | Protocol.Refused { code; _ } ->
              Alcotest.(check string) "bad tenant refused" "bad-tenant" code
          | _ -> Alcotest.fail "expected Refused");
          (* Unknown id. *)
          match Client.rpc conn (Protocol.Status { tenant = "t"; id = "zz" }) with
          | Protocol.Refused { code; _ } ->
              Alcotest.(check string) "unknown id refused" "unknown-id" code
          | _ -> Alcotest.fail "expected Refused");
      (* Raw garbage bytes: answered with a refusal, connection keeps
         serving. *)
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX socket);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Wire.send fd "this is not json";
          (match Option.map Protocol.response_of_string (Wire.recv fd) with
          | Some (Ok (Protocol.Refused { code; _ })) ->
              Alcotest.(check string) "garbage refused" "bad-request" code
          | _ -> Alcotest.fail "expected a refusal frame");
          Wire.send fd (Protocol.request_to_string Protocol.Health);
          (match Option.map Protocol.response_of_string (Wire.recv fd) with
          | Some (Ok (Protocol.Health_of _)) -> ()
          | _ -> Alcotest.fail "connection must survive a garbage frame");
          (* A garbage length desyncs the stream: one refusal, then
             hang up. *)
          write_bytes fd (header (Wire.max_frame + 1));
          (match Option.map Protocol.response_of_string (Wire.recv fd) with
          | Some (Ok (Protocol.Refused { code; _ })) ->
              Alcotest.(check string) "oversize refused" "bad-frame" code
          | _ -> Alcotest.fail "expected a bad-frame refusal");
          Alcotest.(check bool)
            "server hangs up after a desync" true (Wire.recv fd = None)))

let slow_faults = Faults.make ~seed:5 ~delay:1.0 ~delay_s:0.25 ~max_transient:1 ()

let test_backpressure_queue_full () =
  (* One slow worker, queue capacity 4: a 3-job submission fills the
     queue; the next one is pushed back with Retry_after, and plain
     client backoff eventually gets it through. *)
  with_server ~workers:1 ~queue_cap:4 ~faults:slow_faults
    (fun ~socket ~state_dir:_ _t ->
      let specs_a = specs_from 120 3 and specs_b = specs_from 130 2 in
      Client.with_conn socket (fun conn ->
          let id_a, _, _, _ = Client.submit conn ~tenant:"alice" specs_a in
          (match
             Client.rpc conn
               (Protocol.Submit
                  { tenant = "alice"; specs = specs_b; retries = 0 })
           with
          | Protocol.Retry_after { seconds; reason } ->
              Alcotest.(check bool) "positive hint" true (seconds > 0.);
              Alcotest.(check string) "queue full" "queue full" reason
          | _ -> Alcotest.fail "expected Retry_after");
          (* With backoff the refused submission lands once the queue
             drains. *)
          let id_b, _, _, rounds = Client.submit conn ~tenant:"alice" specs_b in
          Alcotest.(check bool) "took at least one backoff round" true (rounds > 0);
          let state_a, _ = Client.wait conn ~tenant:"alice" ~id:id_a in
          let state_b, pb = Client.wait conn ~tenant:"alice" ~id:id_b in
          Alcotest.(check string) "first completed" "completed" state_a;
          Alcotest.(check string) "second completed" "completed" state_b;
          Alcotest.(check int) "no failures" 0 pb.Protocol.failed))

let test_backpressure_tenant_quota () =
  with_server ~tenant_cap:2 (fun ~socket ~state_dir:_ _t ->
      Client.with_conn socket (fun conn ->
          (match
             Client.rpc conn
               (Protocol.Submit
                  {
                    tenant = "bob";
                    specs = specs_from 140 3;
                    retries = 0;
                  })
           with
          | Protocol.Retry_after { reason; _ } ->
              Alcotest.(check string) "quota bounces bob" "tenant quota" reason
          | _ -> Alcotest.fail "expected Retry_after");
          (* The quota is per tenant: carol is unaffected. *)
          let _, total, _, _ = Client.submit conn ~tenant:"carol" (specs_from 150 2) in
          Alcotest.(check int) "carol admitted" 2 total))

let test_cancel_skips_queued_jobs () =
  with_server ~workers:1 ~faults:slow_faults (fun ~socket ~state_dir:_ _t ->
      Client.with_conn socket (fun conn ->
          let id, _, _, _ = Client.submit conn ~tenant:"alice" (specs_from 160 4) in
          let _ = Client.cancel conn ~tenant:"alice" ~id in
          Alcotest.(check bool)
            "cancelled submission settles" true
            (eventually (fun () ->
                 let _, p = Client.status conn ~tenant:"alice" ~id in
                 p.Protocol.completed + p.Protocol.skipped >= p.Protocol.total));
          let state, p = Client.status conn ~tenant:"alice" ~id in
          Alcotest.(check string) "state is cancelled" "cancelled" state;
          Alcotest.(check bool)
            "queued jobs were skipped, not run" true
            (p.Protocol.skipped >= 3);
          (* Results serve exactly the journaled (completed) subset. *)
          let rs = Client.results conn ~tenant:"alice" ~id in
          Alcotest.(check int)
            "one result per completed job" p.Protocol.completed (List.length rs)))

let test_drain_refuses_fresh_finishes_pending () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "pc.sock" in
  let cfg =
    Server.config ~workers:1 ~faults:slow_faults ~socket
      ~state_dir:(Filename.concat dir "state") ()
  in
  let t = Server.start cfg in
  let specs = specs_from 170 2 in
  let id =
    Client.with_conn socket (fun conn ->
        let id, _, _, _ = Client.submit conn ~tenant:"alice" specs in
        Client.drain conn;
        (* Draining: fresh work is backpressured away... *)
        (match
           Client.rpc conn
             (Protocol.Submit
                { tenant = "alice"; specs = specs_from 180 1; retries = 0 })
         with
        | Protocol.Retry_after { reason; _ } ->
            Alcotest.(check string) "drain refuses fresh work" "draining" reason
        | _ -> Alcotest.fail "expected Retry_after");
        (* ... but resubmitting known work still answers. *)
        (match
           Client.rpc conn
             (Protocol.Submit { tenant = "alice"; specs; retries = 0 })
         with
        | Protocol.Accepted { known; _ } ->
            Alcotest.(check bool) "known id still acked while draining" true known
        | _ -> Alcotest.fail "expected Accepted");
        id)
  in
  ignore id;
  (match Server.wait t with
  | Server.Drained -> ()
  | Server.Killed why -> Alcotest.failf "daemon killed instead of drained: %s" why);
  Alcotest.(check bool)
    "socket removed on graceful exit" true (not (Sys.file_exists socket));
  match Client.connect socket with
  | exception Unix.Unix_error _ -> ()
  | conn ->
      Client.close conn;
      Alcotest.fail "connect must fail after drain"

(* The engine's own transient class under the daemon: injected worker
   crashes are retried inside the worker (not by the supervision tree)
   and recover with a budget of 2; with no budget they surface as
   classified failures. *)
let test_crash_retries () =
  let faults = Faults.make ~crash:0.5 ~max_transient:2 () in
  let crashes specs =
    List.exists
      (fun s ->
        Faults.hash01 ~seed:0 ~site:"crash" ~digest:(Spec.digest s) 0 < 0.5)
      specs
  in
  let recovered = specs_from 200 4 and unrecovered = specs_from 210 4 in
  Alcotest.(check bool) "a crash is injected in each submission" true
    (crashes recovered && crashes unrecovered);
  with_server ~faults (fun ~socket ~state_dir:_ _t ->
      let run = Client.submit_and_wait ~socket ~tenant:"alice" ~retries:2 recovered in
      Alcotest.(check int) "retries recover every crash" 0
        run.Client.progress.Protocol.failed;
      Alcotest.(check bool)
        "outcomes equal a local execution" true
        (run.Client.outcomes = reference recovered);
      let run = Client.submit_and_wait ~socket ~tenant:"alice" ~retries:0 unrecovered in
      Alcotest.(check bool) "without retries crashes fail" true
        (run.Client.progress.Protocol.failed > 0);
      List.iter
        (function
          | _, Ok _ -> ()
          | key, Error msg ->
              Alcotest.(check bool)
                (key ^ ": classified as an unrecovered worker crash")
                true
                (String.starts_with
                   ~prefix:"unrecovered transient failure (worker crash)" msg))
        run.Client.outcomes)

(* The acceptance drill: 8 concurrent clients, 16 submissions, 96 jobs
   total, injected worker kills throughout — every submission must
   complete with reference-identical bytes, every job exactly once,
   and the supervision tree must actually have been exercised. *)
let test_chaos_drill () =
  let clients = 8 and subs_per = 2 and jobs_per = 6 in
  let submission i s =
    let tenant = Printf.sprintf "t%d" i in
    (tenant, specs_from (1000 + (((i * subs_per) + s) * 100)) jobs_per)
  in
  let expected = Hashtbl.create 16 in
  for i = 0 to clients - 1 do
    for s = 0 to subs_per - 1 do
      let tenant, specs = submission i s in
      Hashtbl.replace expected (tenant, s) (reference specs)
    done
  done;
  let faults = Faults.make ~seed:9 ~wkill:0.35 ~max_transient:2 () in
  with_server ~workers:3 ~faults (fun ~socket ~state_dir t ->
      let errors = Array.make clients None in
      let worker i =
        try
          for s = 0 to subs_per - 1 do
            let tenant, specs = submission i s in
            let run = Client.submit_and_wait ~seed:i ~socket ~tenant specs in
            if run.Client.state <> "completed" then
              Alcotest.failf "%s/%d: state %s" tenant s run.Client.state;
            if run.Client.progress.Protocol.failed > 0 then
              Alcotest.failf "%s/%d: %d failed job(s)" tenant s
                run.Client.progress.Protocol.failed;
            if run.Client.outcomes <> Hashtbl.find expected (tenant, s) then
              Alcotest.failf "%s/%d: outcomes diverge from local sweep" tenant s
          done
        with e -> errors.(i) <- Some e
      in
      let threads = List.init clients (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i -> function
          | Some e -> Alcotest.failf "client %d died: %s" i (Printexc.to_string e)
          | None -> ())
        errors;
      let h = Client.with_conn socket Client.health in
      Alcotest.(check int)
        "every job done exactly once (by count)"
        (clients * subs_per * jobs_per)
        h.Protocol.jobs_done;
      Alcotest.(check int)
        "every submission registered" (clients * subs_per) h.Protocol.submissions;
      Alcotest.(check bool)
        "the supervision tree was exercised" true (Server.restarts t > 0);
      (* Byte-level exactly-once, per journal. *)
      for i = 0 to clients - 1 do
        for s = 0 to subs_per - 1 do
          let tenant, specs = submission i s in
          check_exactly_once ~state_dir ~tenant specs
        done
      done)

(* ------------------------------------------------------------------ *)
(* The crash-recovery property: kill the whole daemon at a random
   point, restart it on the same state dir, and demand byte-identical
   results with every job journaled exactly once.                     *)

let kill_restart_case (seed, count, kpick) =
  let specs = specs_from (10_000 + (seed * 37)) count in
  let expected = reference specs in
  let dir = fresh_dir () in
  let socket = Filename.concat dir "pc.sock" in
  let state_dir = Filename.concat dir "state" in
  let tenant = "survivor" in
  (* First incarnation: worker kills sprinkled in, whole-daemon kill
     after 1..count completed jobs. *)
  let kill_after = 1 + (kpick mod count) in
  let chaos =
    Faults.make ~seed ~wkill:0.2 ~max_transient:2 ~kill_after ()
  in
  let t1 =
    Server.start
      (Server.config ~workers:2 ~faults:chaos ~socket
         ~state_dir ())
  in
  let conn = Client.connect socket in
  let id, _, _, _ = Client.submit conn ~tenant specs in
  Client.close conn;
  (match Server.wait t1 with
  | Server.Killed _ -> ()
  | Server.Drained -> QCheck.Test.fail_report "daemon drained instead of dying");
  if not (Sys.file_exists (Store.lock_path ~state_dir)) then
    QCheck.Test.fail_report "killed daemon must leave its lockfile behind";
  (* Second incarnation: same state dir, no faults. It must break the
     stale lock, replay the manifest and finish the job list; the
     client just resubmits (idempotent) and reads the results. *)
  let t2 =
    Server.start
      (Server.config ~workers:2 ~socket ~state_dir ())
  in
  let run = Client.submit_and_wait ~socket ~tenant specs in
  if run.Client.id <> id then QCheck.Test.fail_report "submission id changed";
  if not run.Client.known then
    QCheck.Test.fail_report "restarted daemon forgot the manifested submission";
  if run.Client.state <> "completed" then
    QCheck.Test.fail_reportf "state %s after restart" run.Client.state;
  if run.Client.progress.Protocol.failed > 0 then
    QCheck.Test.fail_reportf "%d failed job(s) after restart"
      run.Client.progress.Protocol.failed;
  if run.Client.outcomes <> expected then
    QCheck.Test.fail_report
      "killed-and-restarted daemon's results differ from an uninterrupted sweep";
  Server.drain t2;
  (match Server.wait t2 with
  | Server.Drained -> ()
  | Server.Killed why -> QCheck.Test.fail_reportf "restarted daemon died: %s" why);
  let ds =
    journal_digests
      (Checkpoint.path ~dir:(Store.journal_dir ~state_dir tenant) specs)
  in
  if List.sort compare ds <> List.sort compare (List.map Spec.digest specs)
  then QCheck.Test.fail_report "journal is not exactly-once across the kill";
  true

let test_kill_restart_identical =
  QCheck.Test.make ~count:4
    ~name:"kill daemon at job k + restart = byte-identical, exactly-once"
    QCheck.(triple (int_bound 10_000) (int_range 3 6) (int_bound 1_000))
    kill_restart_case

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "frames round-trip" `Quick test_wire_round_trip;
          Alcotest.test_case "mid-frame EOF is an error" `Quick
            test_wire_eof_mid_frame;
          Alcotest.test_case "oversized frames refused" `Quick
            test_wire_oversized;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "responses round-trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
          Alcotest.test_case "tenant names validated" `Quick test_tenant_names;
        ] );
      ( "store",
        [
          Alcotest.test_case "manifests round-trip" `Quick test_store_round_trip;
          Alcotest.test_case "tampered manifests skipped" `Quick
            test_store_skips_tampered;
          Alcotest.test_case "legacy timeout field dropped" `Quick
            test_legacy_timeout_dropped;
        ] );
      ( "lockfile",
        [
          Alcotest.test_case "self-stale rule" `Quick test_lockfile_self_stale;
          Alcotest.test_case "live holder refused, dead holder broken" `Quick
            test_lockfile_live_and_dead;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "jobs run exactly once" `Quick
            test_supervisor_runs_jobs;
          Alcotest.test_case "dead workers restarted" `Quick
            test_supervisor_restarts_dead_worker;
          Alcotest.test_case "fatal exceptions abort" `Quick
            test_supervisor_fatal_aborts;
          Alcotest.test_case "map_array preserves order" `Quick
            test_map_array_order;
          Alcotest.test_case "map_array re-raises first failure" `Quick
            test_map_array_first_failure;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit round-trip + idempotence" `Quick
            test_submit_roundtrip_and_idempotence;
          Alcotest.test_case "bad peers rejected" `Quick test_rejects_bad_peers;
          Alcotest.test_case "queue backpressure" `Quick
            test_backpressure_queue_full;
          Alcotest.test_case "tenant quota" `Quick
            test_backpressure_tenant_quota;
          Alcotest.test_case "cancel skips queued jobs" `Quick
            test_cancel_skips_queued_jobs;
          Alcotest.test_case "drain: finish pending, refuse fresh" `Quick
            test_drain_refuses_fresh_finishes_pending;
          Alcotest.test_case "chaos drill: 8 clients, 96 jobs, worker kills"
            `Quick test_chaos_drill;
          Alcotest.test_case "worker crashes retried by the engine" `Quick
            test_crash_retries;
        ] );
      ( "crash recovery",
        [ QCheck_alcotest.to_alcotest test_kill_restart_identical ] );
    ]
