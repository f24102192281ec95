(* serve-mixed: an in-process `pc serve` daemon (2 workers, no faults,
   fresh state dir per round) driven by 2 client threads, one
   connection each, in a closed loop. Each round sends [subs]
   submissions of [jobs_per_sub] pool jobs; one in four resubmits the
   same client's submission from two turns earlier, which the daemon
   answers [known] from its journal. Clients poll status every [poll]
   seconds, well below a job's time, and count their polls. *)

open Pc_core.Pc
module Spec = Exec.Spec
module Client = Serve.Client
module Server = Serve.Server

let clients = 2
let workers = 2
let jobs_per_sub = 3
let poll = 0.001

type plan = { tenant : string; specs : Spec.t list; repeat : bool }

let plan ~seed ~round ~subs =
  let rng = Random.State.make [| seed; round |] in
  let pool = Jobs.serve_pool in
  let size = Array.length pool in
  let perm = Array.init size Fun.id in
  for i = size - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let next = ref 0 in
  let take () =
    let s = pool.(perm.(!next mod size)) in
    incr next;
    s
  in
  let plans = Array.make subs { tenant = ""; specs = []; repeat = false } in
  for i = 0 to subs - 1 do
    plans.(i) <-
      (if i mod 4 = 3 then { (plans.(i - 2)) with repeat = true }
       else
         {
           tenant = Printf.sprintf "c%d" (i mod clients);
           specs = List.init jobs_per_sub (fun _ -> take ());
           repeat = false;
         })
  done;
  plans

type sub = {
  latency : float;  (** first submit to results in hand, seconds *)
  submit_s : float;  (** the submit round trip, incl. admission *)
  polls : int;
  known : bool;
  backoff : int;
  results : (string * (Runner.outcome, string) result) list;
}

(* Client [c] takes submissions c, c + clients, ... in order. *)
let client ~socket plans out c =
  Client.with_conn socket (fun conn ->
      let i = ref c in
      while !i < Array.length plans do
        let { tenant; specs; _ } = plans.(!i) in
        let t0 = Util.now () in
        let id, _, known, backoff = Client.submit ~seed:c conn ~tenant specs in
        let submit_s = Util.now () -. t0 in
        let polls = ref 0 in
        let rec wait () =
          incr polls;
          match Client.status conn ~tenant ~id with
          | ("completed" | "cancelled"), _ -> ()
          | _ ->
              Unix.sleepf poll;
              wait ()
        in
        wait ();
        let results = Client.results conn ~tenant ~id in
        out.(!i) <-
          Some
            { latency = Util.now () -. t0; submit_s; polls = !polls; known; backoff; results };
        i := !i + clients
      done)

(* One closed-loop round; returns per-submission records (None where a
   client died) and the round's wall time. Outcomes are checked against
   the pins afterwards, outside the timing. *)
let round ~pins ~tally ~socket plans =
  let out = Array.make (Array.length plans) None in
  let errors = ref [] and lock = Mutex.create () in
  let body c =
    try client ~socket plans out c
    with e -> Mutex.protect lock (fun () -> errors := Printexc.to_string e :: !errors)
  in
  let (), wall =
    Util.timed (fun () ->
        List.init clients (fun c -> Thread.create body c) |> List.iter Thread.join)
  in
  List.iter (fun e -> ignore (Pins.expect tally false ("client died: " ^ e))) !errors;
  Array.iteri
    (fun i p ->
      match out.(i) with
      | None ->
          List.iter
            (fun spec -> ignore (Pins.check tally pins spec (Error "not completed")))
            p.specs
      | Some s ->
          ignore
            (Pins.expect tally (s.known = p.repeat)
               (Printf.sprintf "submission %d: known=%b" i s.known));
          if List.length s.results <> List.length p.specs then
            ignore (Pins.expect tally false (Printf.sprintf "submission %d: results missing" i))
          else
            List.iter2
              (fun spec (key, r) ->
                let r = if key = Spec.key spec then r else Error ("result for " ^ key) in
                ignore (Pins.check tally pins spec r))
              p.specs s.results)
    plans;
  (Array.to_list out |> List.filter_map Fun.id, wall)

(* Boot a daemon on a fresh state dir, run [f] against it, then drain
   it and delete the state. [setup] is boot to first answered health
   RPC. *)
let with_daemon ~tally f =
  let dir = Util.fresh_dir "serve" in
  let socket = Filename.concat dir "pc.sock" in
  let t0 = Util.now () in
  let server =
    Server.start
      (Server.config ~workers ~socket ~state_dir:(Filename.concat dir "state") ())
  in
  let finish () =
    Server.drain server;
    let drained = Server.wait server = Server.Drained in
    Util.rm_rf dir;
    (* Untimed: the next daemon starts on a collected heap, so the peak
       RSS is one daemon's, not however much garbage the GC let pile up. *)
    Gc.full_major ();
    ignore (Pins.expect tally drained "daemon did not drain cleanly")
  in
  match
    ignore (Client.with_conn socket Client.health);
    f ~socket ~setup:(Util.now () -. t0)
  with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let latencies_ms subs = List.map (fun s -> 1e3 *. s.latency) subs

(* Set-up: boot a daemon on fresh state and warm it with a short round
   of 16 submissions; the warm-up is never timed as load. *)
let setup ~pins ~tally ~seed i =
  with_daemon ~tally (fun ~socket ~setup ->
      let _, warm =
        round ~pins ~tally ~socket (plan ~seed ~round:(-1 - i) ~subs:16)
      in
      setup +. warm)

let run ~pins ~tally ~seed ~seconds ~setups ~subs =
  let setup_s = List.init setups (setup ~pins ~tally ~seed) in
  let r = ref 0 in
  (* Keep only each round's latencies and job count, so the live heap,
     and with it peak_rss_mb, does not grow with the run's length. *)
  let rounds =
    Util.repeat_for ~seconds ~min:3 (fun () ->
        let plans = plan ~seed ~round:!r ~subs in
        incr r;
        let subs, wall =
          with_daemon ~tally (fun ~socket ~setup:_ -> round ~pins ~tally ~socket plans)
        in
        let jobs = List.fold_left (fun n s -> n + List.length s.results) 0 subs in
        ((latencies_ms subs, jobs), wall))
  in
  let walls = List.map snd rounds in
  let jobs = List.fold_left (fun n ((_, j), _) -> n + j) 0 rounds in
  let lat = List.concat_map (fun ((l, _), _) -> l) rounds in
  [
    ("setup_s", "s", Util.median setup_s);
    ("wall_s", "s", Util.median walls);
    ("jobs_per_s", "1/s", float_of_int jobs /. Util.sum walls);
    ("latency_ms_p50", "ms", Util.percentile lat 0.5);
    ("latency_ms_p90", "ms", Util.percentile lat 0.9);
  ]

let layer_units =
  [
    ("serve.rpc_us_p50", "us");
    ("serve.submit_ms_p50", "ms");
    ("serve.polls_per_submission", "count");
    ("serve.fresh_latency_ms_p50", "ms");
    ("serve.repeat_latency_ms_p50", "ms");
    ("serve.backoff_rounds", "count");
    ("serve.submissions", "count");
  ]

(* The simulation workloads never reach the service layer. *)
let absent = List.map (fun (name, unit) -> (name, unit, 0.)) layer_units

(* L5 for the traced run: idle-daemon RPC round trips, then one
   instrumented round. *)
let layers ~pins ~tally ~seed ~subs =
  with_daemon ~tally (fun ~socket ~setup:_ ->
      let rpc =
        Client.with_conn socket (fun conn ->
            List.init 200 (fun _ ->
                snd (Util.timed (fun () -> ignore (Client.health conn)))))
      in
      let done_, _ = round ~pins ~tally ~socket (plan ~seed ~round:0 ~subs) in
      let fresh = List.filter (fun s -> not s.known) done_ in
      let repeat = List.filter (fun s -> s.known) done_ in
      let total f = float_of_int (List.fold_left (fun n s -> n + f s) 0 done_) in
      let count = float_of_int (List.length done_) in
      List.map2
        (fun (name, unit) v -> (name, unit, v))
        layer_units
        [
          1e6 *. Util.median rpc;
          1e3 *. Util.median (List.map (fun s -> s.submit_s) done_);
          Util.ratio (total (fun s -> s.polls)) count;
          Util.median (latencies_ms fresh);
          Util.median (latencies_ms repeat);
          total (fun s -> s.backoff);
          count;
        ])
