module T = Pc_telemetry

(* The telemetry subsystem: exact bucket boundaries, span nesting and
   self-time accounting, registry interning/reset, the pc-telemetry/1
   snapshot schema — and the two contracts everything else leans on:
   instruments are no-ops while disabled, and the level never changes
   simulation results. *)

let with_level level f =
  T.Registry.set_level level;
  T.Registry.reset ();
  Fun.protect ~finally:(fun () -> T.Registry.set_level T.Sink.Off) f

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)

let test_bucket_boundaries () =
  let idx = T.Histogram.bucket_index in
  Alcotest.(check int) "1 in bucket 0" 0 (idx 1);
  Alcotest.(check int) "2 opens bucket 1" 1 (idx 2);
  Alcotest.(check int) "3 still bucket 1" 1 (idx 3);
  Alcotest.(check int) "4 opens bucket 2" 2 (idx 4);
  Alcotest.(check int) "7 still bucket 2" 2 (idx 7);
  Alcotest.(check int) "1023 in bucket 9" 9 (idx 1023);
  Alcotest.(check int) "1024 opens bucket 10" 10 (idx 1024);
  Alcotest.(check int) "max_int in bucket 61" 61 (idx max_int);
  (try
     ignore (idx 0);
     Alcotest.fail "expected Invalid_argument on 0"
   with Invalid_argument _ -> ());
  (* bounds: lo inclusive, hi exclusive, 2^k each *)
  Alcotest.(check (pair int int)) "bucket 0" (1, 2) (T.Histogram.bucket_bounds 0);
  Alcotest.(check (pair int int)) "bucket 5" (32, 64) (T.Histogram.bucket_bounds 5);
  let _, hi = T.Histogram.bucket_bounds (T.Histogram.nbuckets - 1) in
  Alcotest.(check int) "last bucket capped at max_int" max_int hi;
  (* every power of two opens its own bucket *)
  for k = 0 to 61 do
    Alcotest.(check int) (Printf.sprintf "2^%d" k) k (idx (1 lsl k));
    if k > 0 then
      Alcotest.(check int)
        (Printf.sprintf "2^%d - 1" k)
        (k - 1)
        (idx ((1 lsl k) - 1))
  done

let test_histogram_observe () =
  with_level T.Sink.Summary (fun () ->
      let h = T.Registry.histogram "test.hist" in
      T.Histogram.reset h;
      List.iter (T.Histogram.observe h) [ 1; 2; 3; 4; 0; -5; 1024 ];
      Alcotest.(check int) "count includes zeros" 7 (T.Histogram.count h);
      Alcotest.(check int) "two non-positive samples" 2 (T.Histogram.zeros h);
      Alcotest.(check int) "sum of positives" 1034 (T.Histogram.sum h);
      Alcotest.(check int) "min tracks raw samples" (-5) (T.Histogram.min_value h);
      Alcotest.(check int) "max" 1024 (T.Histogram.max_value h);
      let seen = ref [] in
      T.Histogram.iter_buckets h (fun k c -> seen := (k, c) :: !seen);
      Alcotest.(check (list (pair int int)))
        "non-empty buckets in index order"
        [ (0, 1); (1, 2); (2, 1); (10, 1) ]
        (List.rev !seen);
      T.Histogram.reset h;
      Alcotest.(check int) "reset" 0 (T.Histogram.count h))

(* ------------------------------------------------------------------ *)
(* The disabled path is a no-op                                       *)

let test_disabled_noop () =
  T.Registry.set_level T.Sink.Off;
  let c = T.Registry.counter "test.noop_counter" in
  let g = T.Registry.gauge "test.noop_gauge" in
  let h = T.Registry.histogram "test.noop_hist" in
  let s = T.Registry.span "test.noop_span" in
  T.Counter.reset c;
  T.Gauge.reset g;
  T.Histogram.reset h;
  T.Span.reset s;
  T.Counter.incr c;
  T.Counter.add c 42;
  T.Gauge.set g 3.14;
  T.Histogram.observe h 7;
  T.Span.time s (fun () -> ());
  Alcotest.(check int) "counter untouched" 0 (T.Counter.value c);
  Alcotest.(check bool) "gauge unset" false (T.Gauge.is_set g);
  Alcotest.(check int) "histogram empty" 0 (T.Histogram.count h);
  Alcotest.(check int) "span uncounted" 0 (T.Span.count s)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

let busy_wait seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let test_span_nesting () =
  with_level T.Sink.Summary (fun () ->
      let outer = T.Registry.span "test.outer" in
      let inner = T.Registry.span "test.inner" in
      T.Span.reset outer;
      T.Span.reset inner;
      T.Span.reset_stack ();
      Alcotest.(check int) "stack empty" 0 (T.Span.depth ());
      T.Span.time outer (fun () ->
          Alcotest.(check int) "outer on stack" 1 (T.Span.depth ());
          T.Span.time inner (fun () ->
              Alcotest.(check int) "inner nested" 2 (T.Span.depth ());
              busy_wait 0.002);
          busy_wait 0.002);
      Alcotest.(check int) "stack drained" 0 (T.Span.depth ());
      Alcotest.(check int) "outer counted" 1 (T.Span.count outer);
      Alcotest.(check int) "inner counted" 1 (T.Span.count inner);
      Alcotest.(check bool) "inner inside outer" true
        (T.Span.total inner <= T.Span.total outer);
      (* self = total minus children, so outer self + inner total must
         reconstruct outer total *)
      Alcotest.(check (float 1e-4))
        "self excludes nested time" (T.Span.total outer)
        (T.Span.self outer +. T.Span.total inner);
      Alcotest.(check bool) "outer self is the busy-wait" true
        (T.Span.self outer >= 0.001))

let test_span_exception_safe () =
  with_level T.Sink.Summary (fun () ->
      let s = T.Registry.span "test.raising" in
      T.Span.reset s;
      T.Span.reset_stack ();
      (try T.Span.time s (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "frame popped on raise" 0 (T.Span.depth ());
      Alcotest.(check int) "interval still recorded" 1 (T.Span.count s))

let test_span_mismatched_exit () =
  with_level T.Sink.Summary (fun () ->
      let s = T.Registry.span "test.mismatch" in
      T.Span.reset s;
      T.Span.reset_stack ();
      (* exit without enter: dropped silently *)
      T.Span.exit_ s;
      Alcotest.(check int) "nothing recorded" 0 (T.Span.count s);
      Alcotest.(check int) "stack untouched" 0 (T.Span.depth ()))

(* Two domains closing one span at once (as sweep workers close
   [runner.exec]): no exit is lost. *)
let test_span_exact_across_domains () =
  with_level T.Sink.Summary (fun () ->
      let s = T.Registry.span "test.shared" in
      let n = 20_000 in
      let work () = for _ = 1 to n do T.Span.time s ignore done in
      let other = Domain.spawn work in
      work ();
      Domain.join other;
      Alcotest.(check int) "count" (2 * n) (T.Span.count s))

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)

let test_registry_intern () =
  with_level T.Sink.Summary (fun () ->
      let a = T.Registry.counter "test.interned" in
      let b = T.Registry.counter "test.interned" in
      Alcotest.(check bool) "same instrument" true (a == b);
      T.Counter.reset a;
      T.Counter.incr a;
      Alcotest.(check int) "shared state" 1 (T.Counter.value b))

let test_registry_reset () =
  with_level T.Sink.Summary (fun () ->
      let c = T.Registry.counter "test.reset_counter" in
      let g = T.Registry.gauge "test.reset_gauge" in
      T.Counter.add c 5;
      T.Gauge.set g 1.0;
      T.Registry.reset ();
      Alcotest.(check int) "counter zeroed" 0 (T.Counter.value c);
      Alcotest.(check bool) "gauge cleared" false (T.Gauge.is_set g);
      (* zero instruments are omitted from snapshots *)
      let s = T.Registry.snapshot () in
      Alcotest.(check (list (pair string int))) "empty capture" [] s.counters;
      Alcotest.(check int) "no gauges" 0 (List.length s.gauges))

(* ------------------------------------------------------------------ *)
(* Snapshot schema                                                    *)

let test_snapshot_roundtrip () =
  with_level T.Sink.Full (fun () ->
      T.Counter.add (T.Registry.counter "test.rt_counter") 17;
      T.Gauge.set (T.Registry.gauge "test.rt_gauge") 2.5;
      let h = T.Registry.histogram "test.rt_hist" in
      List.iter (T.Histogram.observe h) [ 1; 5; 0 ];
      T.Span.time (T.Registry.span "test.rt_span") (fun () -> busy_wait 0.001);
      let s = T.Registry.snapshot () in
      Alcotest.(check string) "level recorded" "full" s.level;
      match T.Snapshot.of_json (T.Snapshot.to_json s) with
      | Ok s' ->
          Alcotest.(check bool) "JSON round trip is exact" true (s = s')
      | Error e -> Alcotest.failf "round trip failed: %s" e)

let test_snapshot_rejects_bad_schema () =
  let j =
    Pc_json.Json.Obj
      [
        ("schema", Pc_json.Json.String "pc-telemetry/999");
        ("level", Pc_json.Json.String "off");
      ]
  in
  Alcotest.(check bool) "version skew rejected" true
    (Result.is_error (T.Snapshot.of_json j));
  Alcotest.(check bool) "non-object rejected" true
    (Result.is_error (T.Snapshot.of_json (Pc_json.Json.String "nope")))

let test_snapshot_csv () =
  with_level T.Sink.Summary (fun () ->
      T.Counter.add (T.Registry.counter "test.csv_counter") 3;
      T.Gauge.set (T.Registry.gauge "test.csv_gauge") 0.5;
      let s = T.Registry.snapshot () in
      let csv = T.Snapshot.to_csv s in
      let lines = String.split_on_char '\n' (String.trim csv) in
      Alcotest.(check string) "header" T.Snapshot.csv_header (List.hd lines);
      Alcotest.(check int) "one row per instrument"
        (List.length s.counters + List.length s.gauges
        + List.length s.histograms + List.length s.spans)
        (List.length lines - 1))

(* ------------------------------------------------------------------ *)
(* Telemetry only observes                                            *)

let run_churn_at level seed =
  T.Registry.set_level level;
  T.Registry.reset ();
  Fun.protect
    ~finally:(fun () -> T.Registry.set_level T.Sink.Off)
    (fun () -> Helpers.run_churn ~c:6.0 "compacting" seed)

let prop_full_off_identical =
  QCheck.Test.make ~name:"results bit-identical across telemetry levels"
    ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      let off = run_churn_at T.Sink.Off seed in
      let summary = run_churn_at T.Sink.Summary seed in
      let full = run_churn_at T.Sink.Full seed in
      off = summary && off = full)

let prop_cache_payload_identical =
  (* The cache entry body (the serialised outcome) must not depend on
     the telemetry level — a full-telemetry sweep and an off sweep
     produce byte-identical cache entries. *)
  QCheck.Test.make ~name:"cache payloads identical across levels" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      let payload level =
        let o = run_churn_at level seed in
        Digest.string (Pc_json.Json.to_string (Pc_exec.Cache.outcome_to_json o))
      in
      payload T.Sink.Off = payload T.Sink.Full)

let test_overhead_smoke () =
  (* Loose smoke only — the real measurement lives in perfbench/ and
     EXPERIMENTS.md. Summary-level telemetry must not blow up a run. *)
  let time_at level =
    let best = ref infinity in
    for _ = 1 to 3 do
      T.Registry.set_level level;
      T.Registry.reset ();
      let t0 = Unix.gettimeofday () in
      ignore (Helpers.run_churn ~c:8.0 "first-fit" 3);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    T.Registry.set_level T.Sink.Off;
    !best
  in
  let off = time_at T.Sink.Off in
  let summary = time_at T.Sink.Summary in
  Alcotest.(check bool)
    (Printf.sprintf "summary %.4fs within 5x of off %.4fs" summary off)
    true
    (summary <= (off *. 5.0) +. 0.05)

(* Counters, histograms and span aggregates are bumped from every
   worker domain: a parallel sweep must count exactly what a serial one
   does, each per-event histogram must see every event its counter
   counts, and [runner.exec] must close once per job. *)
let test_counters_exact_in_parallel () =
  let specs =
    List.map
      (fun c -> Pc_exec.Spec.pf ~c ~manager:"compacting" ~m:16384 ~n:64 ())
      [ 8.; 16.; 32.; 64. ]
  in
  let allocs_at jobs =
    with_level T.Sink.Summary (fun () ->
        ignore (Pc_exec.Engine.run ~jobs specs);
        T.Counter.value (T.Registry.counter "heap.allocs"))
  in
  let serial = allocs_at 1 in
  Alcotest.(check bool) "the sweep allocates" true (serial > 0);
  Alcotest.(check int) "heap.allocs at -j 2 = at -j 1" serial (allocs_at 2);
  Alcotest.(check int) "runner.exec count = jobs at -j 2" (List.length specs)
    (T.Span.count (T.Registry.span "runner.exec"));
  with_level T.Sink.Full (fun () ->
      ignore (Pc_exec.Engine.run ~jobs:2 specs);
      let counter name = T.Counter.value (T.Registry.counter name) in
      let observed name = T.Histogram.count (T.Registry.histogram name) in
      Alcotest.(check int) "heap.alloc_size count = heap.allocs at -j 2"
        (counter "heap.allocs") (observed "heap.alloc_size");
      Alcotest.(check int)
        "free_index.gaps_at_search count = free_index.searches at -j 2"
        (counter "free_index.searches")
        (observed "free_index.gaps_at_search"))

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
        ] );
      ("disabled", [ Alcotest.test_case "no-op" `Quick test_disabled_noop ]);
      ( "span",
        [
          Alcotest.test_case "nesting + self time" `Quick test_span_nesting;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
          Alcotest.test_case "mismatched exit" `Quick test_span_mismatched_exit;
          Alcotest.test_case "exact across domains" `Quick
            test_span_exact_across_domains;
        ] );
      ( "registry",
        [
          Alcotest.test_case "interning" `Quick test_registry_intern;
          Alcotest.test_case "reset" `Quick test_registry_reset;
          Alcotest.test_case "counters exact under -j 2" `Quick
            test_counters_exact_in_parallel;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "json round trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "bad schema rejected" `Quick
            test_snapshot_rejects_bad_schema;
          Alcotest.test_case "csv shape" `Quick test_snapshot_csv;
        ] );
      ( "observation only",
        List.map QCheck_alcotest.to_alcotest
          [ prop_full_off_identical; prop_cache_payload_identical ]
        @ [ Alcotest.test_case "overhead smoke" `Quick test_overhead_smoke ] );
    ]
