(* The repo benchmark's runner: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--scale full|toy] [--pins FILE] [--commit REV]
              [--source-digest HEX]
     main.exe --write-pins FILE

   With --trace 0 it measures the end-to-end metrics with audit and
   telemetry off; with --trace 1 it measures the per-layer metrics
   instead. Every job's outcome is checked against the pins. The last
   line of stdout is the result object; the line before it, prefixed
   "record ", repeats the metrics with the run's provenance. Exit code
   0 when every check passed, 1 when any failed, 2 on a usage or
   environment error (no result printed). See README.md. *)

module Json = Pc_json.Json

let workloads = [ "pf-compact"; "robson-fit"; "serve-mixed" ]

let usage =
  "main.exe --workload {pf-compact|robson-fit|serve-mixed} --seed N --seconds S \
   --trace 0|1 [--scale full|toy] [--pins FILE] [--commit REV] \
   [--source-digest HEX]\n\
   main.exe --write-pins FILE"

let gc_params () =
  let g = Gc.get () in
  Json.Obj
    [
      ("minor_heap_size", Json.Int g.minor_heap_size);
      ("space_overhead", Json.Int g.space_overhead);
      ("max_overhead", Json.Int g.max_overhead);
      ("window_size", Json.Int g.window_size);
      ("custom_major_ratio", Json.Int g.custom_major_ratio);
      ("custom_minor_ratio", Json.Int g.custom_minor_ratio);
      ("custom_minor_max_size", Json.Int g.custom_minor_max_size);
    ]

let measure ~pins ~tally ~workload ~seed ~seconds ~trace ~scale =
  let sim specs =
    if trace then
      Layers.measure ~pins ~tally ~seed ~queries:4096 (specs scale)
      @ Serve_mixed.absent
    else
      Sim.run ~pins ~tally ~seconds ~setups:9 (specs scale)
        ~warm:(specs Jobs.Toy)
  in
  match workload with
  | "pf-compact" -> sim Jobs.pf_compact
  | "robson-fit" -> sim Jobs.robson_fit
  | _ ->
      let subs = match scale with Jobs.Full -> 100 | Jobs.Toy -> 16 in
      if trace then
        Layers.measure ~pins ~tally ~seed ~queries:256
          (Array.to_list Jobs.serve_pool)
        @ Serve_mixed.layers ~pins ~tally ~seed ~subs
      else Serve_mixed.run ~pins ~tally ~seed ~seconds ~setups:9 ~subs

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       ms)

let main () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and scale = ref "full" in
  let pins_path = ref (Filename.concat "perfbench" "pins.tsv") in
  let commit = ref "unknown" and source_digest = ref "unknown" in
  let write_pins = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed phase runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--scale", Arg.Set_string scale, "full|toy problem scale (default full)");
      ("--pins", Arg.Set_string pins_path, "FILE pinned outcomes");
      ("--commit", Arg.Set_string commit, "REV commit measured, for the record");
      ("--source-digest", Arg.Set_string source_digest, "HEX digest of the sources");
      ("--write-pins", Arg.Set_string write_pins, "FILE recompute every pin into FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !write_pins <> "" then begin
    Pins.write !write_pins (Jobs.all_pinned ());
    exit 0
  end;
  let bad msg =
    prerr_endline ("perfbench: " ^ msg ^ "\n" ^ usage);
    exit 2
  in
  if not (List.mem !workload workloads) then bad ("unknown workload " ^ !workload);
  if !seed < 0 then bad "--seed N is required";
  if !seconds <= 0. then bad "--seconds S is required";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let scale =
    match !scale with
    | "full" -> Jobs.Full
    | "toy" -> Jobs.Toy
    | s -> bad ("unknown scale " ^ s)
  in
  let pins = Pins.load !pins_path in
  let tally = Pins.tally () in
  let trace = !trace = 1 in
  let metrics =
    Fun.protect ~finally:Util.cleanup (fun () ->
        measure ~pins ~tally ~workload:!workload ~seed:!seed ~seconds:!seconds
          ~trace ~scale)
  in
  let metrics =
    if trace then metrics else metrics @ [ ("peak_rss_mb", "MB", Util.peak_rss_mb ()) ]
  in
  let error_rate =
    Util.ratio (float_of_int tally.failed) (float_of_int tally.attempted)
  in
  let correct = tally.failed = 0 && tally.attempted > 0 in
  List.iter (fun n -> prerr_endline ("perfbench: check failed: " ^ n)) (List.rev tally.notes);
  Printf.printf "perfbench %s  seed=%d scale=%s trace=%b seconds=%g\n" !workload
    !seed (Jobs.scale_name scale) trace !seconds;
  List.iter (fun (n, u, v) -> Printf.printf "  %-36s %18.6f %s\n" n v u) metrics;
  Printf.printf "  %-36s %18.6f (%d of %d checks failed)\n" "error_rate" error_rate
    tally.failed tally.attempted;
  let record =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int !seed);
        ("scale", Json.String (Jobs.scale_name scale));
        ("trace", Json.Bool trace);
        ("seconds", Json.Float !seconds);
        ("commit", Json.String !commit);
        ("source_digest", Json.String !source_digest);
        ("ocaml", Json.String Sys.ocaml_version);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("gc", gc_params ());
        ("error_rate", Json.Float error_rate);
        ("metrics", metrics_json metrics);
      ]
  in
  print_endline ("record " ^ Json.to_string record);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ("metrics", metrics_json metrics);
          ]));
  exit (if correct then 0 else 1)

let () =
  try main () with
  | e ->
      Util.cleanup ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2
