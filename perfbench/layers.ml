(* The traced run's L0-L4 measurements on a workload's job list, taken
   from outside the library: a timing wrapper around each registry
   manager, a trace recorded at the wrapper's first call and replayed,
   a seeded batch of kernel queries on the replayed heap, the
   program's own telemetry counters and spans at summary level, and
   per-call timings of the engine's cache and journal. *)

open Pc_core.Pc
module Spec = Exec.Spec
module T = Telemetry

type acc = {
  mutable alloc_ns : int;
  mutable alloc_calls : int;
  mutable alloc_words : int;
  mutable free_ns : int;
  mutable trace : Trace.t option;
}

(* [inner] behind a wrapper that times [Manager.alloc] and [on_free]
   and counts the minor words [alloc] allocates. *)
let wrap acc inner =
  Manager.make ~name:(Manager.name inner)
    ~description:(Manager.description inner)
    ~on_free:(fun ctx obj ->
      let t0 = Util.now_ns () in
      Manager.on_free inner ctx obj;
      acc.free_ns <- acc.free_ns + (Util.now_ns () - t0))
    (fun ctx ~size ->
      (match acc.trace with
      | Some _ -> ()
      | None ->
          let trace = Trace.create () in
          Trace.record trace (Ctx.heap ctx);
          acc.trace <- Some trace);
      let w0 = Gc.minor_words () in
      let t0 = Util.now_ns () in
      let addr = Manager.alloc inner ctx ~size in
      let t1 = Util.now_ns () in
      acc.alloc_words <- acc.alloc_words + int_of_float (Gc.minor_words () -. w0);
      acc.alloc_ns <- acc.alloc_ns + (t1 - t0);
      acc.alloc_calls <- acc.alloc_calls + 1;
      addr)

(* [count] each of first_fit, best_fit_gap, largest_gaps and clear_cost
   at seeded sizes and windows; returns (ns, calls). *)
let query_batch ~seed ~job heap ~n ~count =
  let rng = Random.State.make [| seed; job |] in
  let fi = Heap.free_index heap in
  let hs = max 1 (Heap.high_water heap) in
  let sizes = Array.init count (fun _ -> 1 + Random.State.int rng n) in
  let starts = Array.init count (fun _ -> Random.State.int rng hs) in
  let sink = ref 0 in
  let t0 = Util.now_ns () in
  for i = 0 to count - 1 do
    let size = sizes.(i) in
    (match Free_index.first_fit fi ~size with
    | Free_index.Gap a | Free_index.Tail a -> sink := !sink + a);
    (match Free_index.best_fit_gap fi ~size with
    | Some a -> sink := !sink + a
    | None -> ());
    sink := !sink + List.length (Free_index.largest_gaps fi ~k:8);
    sink :=
      !sink
      + Heap.clear_cost heap ~start:starts.(i) ~stop:(starts.(i) + (2 * size))
          ~cap:max_int
  done;
  let ns = Util.now_ns () - t0 in
  ignore (Sys.opaque_identity !sink);
  (ns, 4 * count)

let counter name = float_of_int (T.Counter.value (T.Registry.counter name))
let span_total name = T.Span.total (T.Registry.span name)

type sim = {
  metrics : (string * string * float) list;
  outcomes : (Spec.t * Runner.outcome) list;
  traced_wall : float;  (** the traced pass, without its post-job analysis *)
}

(* One traced pass over [specs] through [Runner.run], as [Engine]
   executes a job with audit off. *)
let traced_pass ~pins ~tally ~seed ~queries specs =
  T.Registry.reset ();
  let jobs = ref 0 and runner_ns = ref 0 and runner_words = ref 0. in
  let alloc_ns = ref 0 and alloc_calls = ref 0 and alloc_words = ref 0 in
  let free_ns = ref 0 and events = ref 0 in
  let replay_ns = ref 0 and replay_words = ref 0. in
  let query_ns = ref 0 and query_calls = ref 0 in
  let traced_wall = ref 0. and outcomes = ref [] in
  List.iteri
    (fun job spec ->
      let acc =
        { alloc_ns = 0; alloc_calls = 0; alloc_words = 0; free_ns = 0; trace = None }
      in
      T.Registry.set_level T.Sink.Summary;
      let t_job = Util.now () in
      let result =
        match
          let program = Spec.build spec in
          let manager = wrap acc (Spec.manager spec) in
          let w0 = Gc.minor_words () in
          let t0 = Util.now_ns () in
          let o = Runner.run ?c:spec.Spec.c ~program ~manager () in
          runner_ns := !runner_ns + (Util.now_ns () - t0);
          runner_words := !runner_words +. (Gc.minor_words () -. w0);
          o
        with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e)
      in
      traced_wall := !traced_wall +. (Util.now () -. t_job);
      T.Registry.set_level T.Sink.Off;
      incr jobs;
      alloc_ns := !alloc_ns + acc.alloc_ns;
      alloc_calls := !alloc_calls + acc.alloc_calls;
      alloc_words := !alloc_words + acc.alloc_words;
      free_ns := !free_ns + acc.free_ns;
      if Pins.check tally pins spec result then begin
        let o = Result.get_ok result in
        outcomes := (spec, o) :: !outcomes;
        match acc.trace with
        | None -> ignore (Pins.expect tally false ("no trace: " ^ Spec.key spec))
        | Some trace -> (
            events := !events + Trace.length trace;
            let w0 = Gc.minor_words () in
            let t0 = Util.now_ns () in
            let replayed = Trace.replay trace in
            replay_ns := !replay_ns + (Util.now_ns () - t0);
            replay_words := !replay_words +. (Gc.minor_words () -. w0);
            match replayed with
            | Ok heap
              when Pins.expect tally
                     (Heap.high_water heap = o.hs
                     && Heap.live_words heap = o.final_live)
                     ("replay diverged: " ^ Spec.key spec) ->
                let ns, calls =
                  query_batch ~seed ~job heap ~n:spec.Spec.n ~count:queries
                in
                query_ns := !query_ns + ns;
                query_calls := !query_calls + calls
            | Ok _ -> ()
            | Error e -> ignore (Pins.expect tally false ("replay rejected: " ^ e)))
      end)
    specs;
  let fl = float_of_int in
  let allocs = counter "heap.allocs" in
  let candidates = counter "evict.candidates_scanned" in
  let runner_s = fl !runner_ns *. 1e-9 in
  let manager_s = fl (!alloc_ns + !free_ns) *. 1e-9 in
  {
    metrics =
      [
        ("heap.replay_ns_per_event", "ns", Util.ratio (fl !replay_ns) (fl !events));
        ( "heap.replay_minor_words_per_event",
          "words",
          Util.ratio !replay_words (fl !events) );
        ("heap.query_ns_per_call", "ns", Util.ratio (fl !query_ns) (fl !query_calls));
        ("heap.query_calls", "count", fl !query_calls);
        ("heap.events", "count", fl !events);
        ("heap.allocs", "count", allocs);
        ( "free_index.searches_per_alloc",
          "ratio",
          Util.ratio (counter "free_index.searches") allocs );
        ( "manager.alloc_ns_per_call",
          "ns",
          Util.ratio (fl !alloc_ns) (fl !alloc_calls) );
        ( "manager.alloc_minor_words_per_call",
          "words",
          Util.ratio (fl !alloc_words) (fl !alloc_calls) );
        ("manager.alloc_calls", "count", fl !alloc_calls);
        ("manager.busy_frac", "ratio", Util.ratio manager_s runner_s);
        ("evict.candidates_scanned", "count", candidates);
        ("evict.candidates_per_alloc", "ratio", Util.ratio candidates allocs);
        ( "evict.cleared_per_candidate",
          "ratio",
          Util.ratio (counter "evict.windows_cleared") candidates );
        ("adversary.self_s", "s", runner_s -. manager_s);
        ("adversary.pf_stage1_s", "s", span_total "pf.stage1");
        ("adversary.pf_stage2_s", "s", span_total "pf.stage2_step");
        ( "runner.minor_words_per_job",
          "words",
          Util.ratio !runner_words (fl !jobs) );
        ("runner.jobs", "count", fl !jobs);
      ];
    outcomes = List.rev !outcomes;
    traced_wall = !traced_wall;
  }

(* ------------------------------------------------------------------ *)
(* L4: one untraced [Engine.run ~jobs:1] pass with a fresh cache and
   journal, as a first `pc sweep` runs it. Returns per-job results and
   the pass's wall time. *)

let engine_pass ~pins ~tally specs =
  let dir = Util.fresh_dir "sweep" in
  let cache = Exec.Cache.create ~dir () in
  let checkpoint =
    Exec.Checkpoint.open_ ~dir:(Exec.Checkpoint.default_dir ~cache_dir:dir) specs
  in
  let (results, _), wall =
    Util.timed (fun () -> Exec.Engine.run ~jobs:1 ~cache ~checkpoint specs)
  in
  Exec.Checkpoint.close checkpoint;
  Util.rm_rf dir;
  List.iter
    (fun (r : Exec.Engine.job_result) ->
      ignore (Pins.check tally pins r.spec r.result))
    results;
  (results, wall)

(* Per-call cost of the engine's store, hit and journal paths on real
   outcomes, repeated to at least [calls] calls each. *)
let exec_calls ~tally ~calls outcomes =
  let dir = Util.fresh_dir "exec" in
  let cache = Exec.Cache.create ~dir:(Filename.concat dir "cache") () in
  let specs = List.map fst outcomes in
  let journal =
    Exec.Checkpoint.open_ ~dir:(Filename.concat dir "journal") specs
  in
  let n = List.length outcomes in
  let reps = max 1 ((calls + n - 1) / max 1 n) in
  (* Mean ns per call of [f spec outcome], which returns its own ns. *)
  let per_call f =
    let ns = ref 0 in
    for _ = 1 to reps do
      List.iter (fun (spec, o) -> ns := !ns + f spec o) outcomes
    done;
    Util.ratio (float_of_int !ns) (float_of_int (reps * n))
  in
  let time_ns g =
    let t0 = Util.now_ns () in
    g ();
    Util.now_ns () - t0
  in
  let store_ns =
    per_call (fun spec o -> time_ns (fun () -> Exec.Cache.store cache spec o))
  in
  let hit_ns =
    per_call (fun spec o ->
        let found = ref Exec.Cache.Miss in
        let ns = time_ns (fun () -> found := Exec.Cache.lookup cache spec) in
        ignore
          (Pins.expect tally
             (match !found with Exec.Cache.Hit o' -> o' = o | _ -> false)
             ("cache did not return the stored outcome: " ^ Spec.key spec));
        ns)
  in
  let record_ns =
    per_call (fun spec o ->
        time_ns (fun () -> Exec.Checkpoint.record journal spec (Ok o)))
  in
  Exec.Checkpoint.close journal;
  Util.rm_rf dir;
  [
    ("exec.cache_store_us", "us", store_ns *. 1e-3);
    ("exec.cache_hit_us", "us", hit_ns *. 1e-3);
    ("exec.journal_record_us", "us", record_ns *. 1e-3);
  ]

(* Everything the traced run measures below the service layer. *)
let measure ~pins ~tally ~seed ~queries specs =
  let results, engine_wall = engine_pass ~pins ~tally specs in
  let executed, elapsed =
    List.fold_left
      (fun (n, s) (r : Exec.Engine.job_result) ->
        if r.from_cache || r.from_journal then (n, s) else (n + 1, s +. r.elapsed))
      (0, 0.) results
  in
  let sim = traced_pass ~pins ~tally ~seed ~queries specs in
  sim.metrics
  @ [
      ( "exec.overhead_ms_per_job",
        "ms",
        Util.ratio ((engine_wall -. elapsed) *. 1e3) (float_of_int executed) );
      ("exec.jobs", "count", float_of_int executed);
    ]
  @ exec_calls ~tally ~calls:256 sim.outcomes
  @ [ ("trace.overhead_frac", "ratio", Util.ratio sim.traced_wall engine_wall -. 1.) ]
