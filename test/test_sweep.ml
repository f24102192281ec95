(* The parallel sweep engine: parallel execution must be bit-identical
   to sequential execution, the result cache must serve re-runs
   without executing anything (and without perturbing the numbers),
   and one failing point must not kill a sweep. *)

open Pc_exec
open Pc_json

let outcome = Helpers.outcome
let grid = Helpers.grid
let outcomes = Helpers.outcomes
let fresh_dir = Helpers.fresh_dir

let test_parallel_matches_sequential () =
  let specs = grid () in
  let r1, s1 = Engine.run ~jobs:1 specs in
  let r4, s4 = Engine.run ~jobs:4 specs in
  Alcotest.(check int) "all executed (seq)" (List.length specs) s1.executed;
  Alcotest.(check int) "all executed (par)" (List.length specs) s4.executed;
  Alcotest.(check int) "no failures" 0 s4.failed;
  Alcotest.(check (list outcome))
    "jobs=4 bit-identical to jobs=1" (outcomes r1) (outcomes r4)

let test_cache_round_trip () =
  let specs = grid () in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let r1, s1 = Engine.run ~jobs:2 ~cache specs in
  Alcotest.(check int) "first run executes all" (List.length specs) s1.executed;
  Alcotest.(check int) "first run has no hits" 0 s1.cached;
  let r2, s2 = Engine.run ~jobs:2 ~cache specs in
  Alcotest.(check int) "second run executes nothing" 0 s2.executed;
  Alcotest.(check int) "second run fully cached" (List.length specs) s2.cached;
  Alcotest.(check bool)
    "hits marked as from_cache" true
    (List.for_all (fun (r : Engine.job_result) -> r.from_cache) r2);
  (* The JSON round-trip must be exact — floats included. *)
  Alcotest.(check (list outcome))
    "cached outcomes bit-identical" (outcomes r1) (outcomes r2)

let test_failure_isolation () =
  let bad = Spec.pf ~c:8.0 ~manager:"compacting" ~m:32 ~n:64 () in
  (* m < n *)
  let unknown = Spec.robson ~manager:"no-such-manager" ~m:256 ~n:16 () in
  let good = Spec.robson ~manager:"first-fit" ~m:256 ~n:16 () in
  let results, summary = Engine.run ~jobs:2 [ bad; good; unknown ] in
  Alcotest.(check int) "two failures" 2 summary.failed;
  match results with
  | [ b; g; u ] ->
      Alcotest.(check bool) "bad spec failed" true (Result.is_error b.result);
      Alcotest.(check bool) "unknown manager failed" true
        (Result.is_error u.result);
      Alcotest.(check bool) "good spec survived" true (Result.is_ok g.result)
  | _ -> Alcotest.fail "expected three results in input order"

let test_spec_json_round_trip () =
  List.iter
    (fun spec ->
      let spec' = Spec.of_json (Json.of_string (Json.to_string (Spec.to_json spec))) in
      Alcotest.(check bool)
        (Printf.sprintf "round-trips: %s" (Spec.key spec))
        true (Spec.equal spec spec'))
    (grid ()
    @ [
        Spec.pf ~ell:2 ~stage1_steps:0 ~maintain_density:false ~c:32.0
          ~manager:"sliding" ~m:4096 ~n:64 ();
        Spec.pw ~steps:3 ~manager:"buddy" ~m:1024 ~n:32 ();
        Spec.sawtooth ~rounds:4
          ~pattern:(Spec.Random 3) ~c:8.0 ~manager:"next-fit" ~m:1024 ~n:32 ();
      ])

let test_cache_ignores_corrupt_entries () =
  let spec = Spec.robson ~manager:"first-fit" ~m:256 ~n:16 () in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let path = Cache.path cache spec in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  Alcotest.(check bool) "corrupt entry is a miss" true (Cache.find cache spec = None);
  let _, s = Engine.run ~cache [ spec ] in
  Alcotest.(check int) "re-executed over corrupt entry" 1 s.executed;
  Alcotest.(check bool) "entry repaired" true (Cache.find cache spec <> None)

(* Every way an entry can rot — truncation, garbage bytes, a stale
   format version, a digest collision — must surface as a counted
   [Invalid] (never a silent miss, never a wrong hit), re-execute, and
   self-heal the entry on disk. *)
let test_cache_invalid_entry_taxonomy () =
  let spec = Spec.robson ~manager:"first-fit" ~m:256 ~n:16 () in
  let other = Spec.robson ~manager:"buddy" ~m:256 ~n:16 () in
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let write path content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  let fixtures =
    [
      ("truncated", fun path -> write path (String.sub (read path) 0 (String.length (read path) / 2)));
      ("garbage", fun path -> write path "\x00\xffnot even close to json");
      ( "wrong format version",
        fun path ->
          (* Valid JSON, wrong version: must not be served. *)
          let entry = Json.of_string (read path) in
          let bumped =
            match entry with
            | Json.Obj fields ->
                Json.Obj
                  (List.map
                     (function
                       | "format", _ -> ("format", Json.Int 999)
                       | f -> f)
                     fields)
            | j -> j
          in
          write path (Json.to_string bumped) );
      ( "digest collision",
        fun path ->
          (* A well-formed entry for a *different* spec sitting at
             this spec's path: the key check must reject it. *)
          let cache' = Cache.create ~dir:(fresh_dir ()) () in
          let r = Engine.execute other in
          Cache.store cache' other (Result.get_ok r.result);
          write path (read (Cache.path cache' other)) );
    ]
  in
  List.iter
    (fun (name, mangle) ->
      let cache = Cache.create ~dir:(fresh_dir ()) () in
      (* Prime a valid entry, then rot it. *)
      let _, s0 = Engine.run ~cache [ spec ] in
      Alcotest.(check int) (name ^ ": primed") 1 s0.executed;
      mangle (Cache.path cache spec);
      (match Cache.lookup cache spec with
      | Cache.Invalid _ -> ()
      | Cache.Hit _ -> Alcotest.failf "%s: rotten entry served as a hit" name
      | Cache.Miss -> Alcotest.failf "%s: rotten entry was a silent miss" name);
      let r1, s1 = Engine.run ~cache [ spec ] in
      Alcotest.(check int) (name ^ ": counted as recovered") 1 s1.recovered;
      Alcotest.(check int) (name ^ ": re-executed") 1 s1.executed;
      Alcotest.(check bool)
        (name ^ ": outcome ok") true
        (Result.is_ok (List.hd r1).result);
      (* Self-healed: the next run is a clean hit. *)
      let _, s2 = Engine.run ~cache [ spec ] in
      Alcotest.(check int) (name ^ ": healed entry hits") 1 s2.cached;
      Alcotest.(check int) (name ^ ": nothing left to recover") 0 s2.recovered)
    fixtures

(* Two workers storing the same spec at once: each store writes its
   own temp file, so neither rename can find its temp file gone. *)
let test_concurrent_stores_of_one_spec () =
  let spec = Spec.robson ~manager:"first-fit" ~m:256 ~n:16 () in
  let expected = Engine.outcome_exn (Engine.execute spec) in
  for _ = 1 to 50 do
    let cache = Cache.create ~dir:(fresh_dir ()) () in
    let results, _ = Engine.run ~jobs:2 ~cache [ spec; spec ] in
    Alcotest.(check (list outcome))
      "both outcomes match a bare execution" [ expected; expected ]
      (outcomes results)
  done

(* A hit is journaled like an execution, so a resumed sweep finds it
   in the journal even if the cache is gone. *)
let test_cache_hit_is_journaled () =
  let spec = Spec.robson ~manager:"first-fit" ~m:256 ~n:16 () in
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let r0, _ = Engine.run ~cache [ spec ] in
  let jdir = Checkpoint.default_dir ~cache_dir:dir in
  let cp = Checkpoint.open_ ~dir:jdir [ spec ] in
  let _, s = Engine.run ~cache ~checkpoint:cp [ spec ] in
  Checkpoint.close cp;
  Alcotest.(check int) "served from the cache" 1 s.cached;
  let cp = Checkpoint.open_ ~resume:true ~dir:jdir [ spec ] in
  let journaled = Checkpoint.find cp spec in
  Checkpoint.close cp;
  Alcotest.(check bool)
    "the hit's outcome is in the journal" true
    (journaled = Some (List.hd r0).result)

(* A script spec takes its M and n from the parsed script, survives the
   wire, and a bad script is refused when it is decoded. *)
let test_script_spec () =
  let spec = Spec.script ~manager:"first-fit" "a x 16; a y 8; f x; a z 4" in
  Alcotest.(check (pair int int)) "m, n from the script" (24, 16)
    (spec.Spec.m, spec.Spec.n);
  let wire s = Spec.of_json (Json.of_string (Json.to_string (Spec.to_json s))) in
  Alcotest.(check bool) "round-trips" true (Spec.equal spec (wire spec));
  let o = Engine.outcome_exn (Engine.execute spec) in
  Alcotest.(check (pair int int)) "hs, final live" (24, 12) (o.hs, o.final_live);
  let bad = { spec with workload = Spec.Script { text = "a x 16; f y" } } in
  Alcotest.(check bool) "bad script refused by of_json" true
    (match wire bad with _ -> false | exception Spec.Bad_spec _ -> true);
  let submit =
    Pc_serve.Protocol.Submit { tenant = "t"; specs = [ bad ]; retries = 0 }
  in
  match
    Pc_serve.Protocol.(request_of_string (request_to_string submit))
  with
  | Error msg ->
      Alcotest.(check bool) ("refused: " ^ msg) true
        (String.starts_with ~prefix:"bad spec: bad script" msg)
  | Ok _ -> Alcotest.fail "a submit with a bad script was accepted"

let () =
  Alcotest.run "sweep engine"
    [
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round trip" `Quick test_cache_round_trip;
          Alcotest.test_case "corrupt entry = miss" `Quick
            test_cache_ignores_corrupt_entries;
          Alcotest.test_case "invalid-entry taxonomy heals" `Quick
            test_cache_invalid_entry_taxonomy;
          Alcotest.test_case "concurrent stores of one spec" `Quick
            test_concurrent_stores_of_one_spec;
          Alcotest.test_case "a batch run journals its hits" `Quick
            test_cache_hit_is_journaled;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "failures are isolated" `Quick
            test_failure_isolation;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "spec json round trip" `Quick
            test_spec_json_round_trip;
          Alcotest.test_case "script specs" `Quick test_script_spec;
        ] );
    ]
