(* pc — command-line interface to the partial-compaction bounds and
   simulators.

     pc bounds   -m 256M -n 1M -c 50          closed-form bounds
     pc figure   1|2|3                        CSV series of a figure
     pc experiment sim-lower --small          a paper table (none = all)
     pc simulate --program pf --manager compacting -m 16K -n 64 -c 8
     pc diagram  -m 256 -n 16                 ASCII heap rendering
     pc managers                              list known managers
*)

open Pc_core
open Cmdliner
module Json = Pc.Json
module Spec = Pc.Exec.Spec

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                            *)

(* Sizes accept K/M/G suffixes: "256M" = 256 * 2^20 words. *)
let size_conv =
  let parse s =
    let len = String.length s in
    if len = 0 then Error (`Msg "empty size")
    else begin
      let mult, digits =
        match s.[len - 1] with
        | 'k' | 'K' -> (1 lsl 10, String.sub s 0 (len - 1))
        | 'm' | 'M' -> (1 lsl 20, String.sub s 0 (len - 1))
        | 'g' | 'G' -> (1 lsl 30, String.sub s 0 (len - 1))
        | _ -> (1, s)
      in
      match int_of_string_opt digits with
      | Some v when v > 0 -> Ok (v * mult)
      | Some _ | None -> Error (`Msg ("bad size: " ^ s))
    end
  in
  let print ppf v = Pc.Word.pp_count ppf v in
  Arg.conv (parse, print)

(* -m, -n, -c and --cs: every command takes the same flag, with its own
   default scale. *)
let m_arg default =
  Arg.(
    value & opt size_conv default
    & info [ "m" ] ~docv:"WORDS" ~doc:"Live-space bound M (K/M/G suffixes).")

let n_arg default =
  Arg.(
    value & opt size_conv default
    & info [ "n" ] ~docv:"WORDS"
        ~doc:"Largest object size n, a power of two (K/M/G suffixes).")

let c_arg default =
  Arg.(
    value & opt float default
    & info [ "c" ] ~docv:"C"
        ~doc:"Compaction bound: at most 1/c of allocated words may be moved.")

let cs_arg default =
  Arg.(
    value
    & opt (list float) default
    & info [ "cs" ] ~docv:"C,C,..." ~doc:"Compaction bounds, one PF job each.")

(* [conv] restricted to the values [ok] accepts; [what] names them in
   the error message. *)
let restrict conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let manager_arg =
  let keys = String.concat ", " (Pc.Managers.keys ()) in
  Arg.(
    value & opt string "compacting"
    & info [ "manager" ] ~docv:"NAME" ~doc:("Memory manager: " ^ keys ^ "."))

let audit_arg =
  let level_conv =
    Arg.conv (Pc.Audit.Oracle.level_of_string, Pc.Audit.Oracle.pp_level)
  in
  Arg.(
    value
    & opt level_conv Pc.Audit.Oracle.Off
    & info [ "audit" ] ~docv:"LEVEL"
        ~doc:
          "Runtime oracle level: $(b,off), $(b,sampled) (budget and \
           live-space rules every event, the O(live) structural sweep at \
           least 64 events apart), $(b,full) (structural sweep every event \
           plus PF's Claim 4.16 potential audit), or $(b,differential) \
           (sampled, plus a shadow reference heap mirroring \
           every event — fails at the first diverging event). On a \
           violation the recorded trace is delta-debugged into a repro \
           bundle and the exit code is 3.")

let failures_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "failures-dir" ] ~docv:"DIR"
        ~doc:
          "Where repro bundles are written (default: $(b,PC_FAILURES_DIR) \
           or $(b,_pc_failures)).")

let telemetry_arg =
  let level_conv =
    Arg.conv (Pc.Telemetry.Sink.of_string, Pc.Telemetry.Sink.pp)
  in
  Arg.(
    value
    & opt level_conv Pc.Telemetry.Sink.Off
    & info [ "telemetry" ] ~docv:"LEVEL"
        ~doc:
          "Instrumentation level: $(b,off) (the default; the disabled \
           path is measurably free), $(b,summary) (counters, gauges and \
           timed spans), or $(b,full) (additionally per-event histograms: \
           allocation sizes, gap-scan work, the HS/M trajectory). \
           Telemetry only observes — results are bit-identical across \
           levels.")

let telemetry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE"
        ~doc:
          "Write the telemetry snapshot as JSON (schema \
           $(b,pc-telemetry/1)) to $(docv) — feed it to $(b,pc report). \
           Without this flag a non-off level renders the report on stderr \
           after the run.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the outcome as JSON on stdout instead of the human table. \
           The output is deterministic (no wall-clock fields), so it is \
           diffable across runs.")

(* The sweep flags, shared by every command that runs the engine. *)

let jobs_arg =
  Arg.(
    value
    & opt (restrict int ~what:"a positive count" (fun j -> j >= 1)) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Execute sweep points on $(docv) parallel worker domains.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Always execute; neither read nor write the result cache, and \
           skip the checkpoint journal — the sweep touches no on-disk \
           state.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Result cache directory (default: $(b,PC_CACHE_DIR) or \
           $(b,_pc_cache)).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay outcomes journaled by a previous (possibly killed) run \
           of the same sweep from $(b,<cache-dir>/sweeps/), re-executing \
           only the missing points. Without this flag the journal is \
           truncated and the sweep starts clean.")

let retries_arg =
  Arg.(
    value
    & opt (restrict int ~what:"a non-negative count" (fun r -> r >= 0)) 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a job up to $(docv) times after a transient failure (an \
           injected worker crash, the only kind), with exponential backoff \
           and seeded jitter. Deterministic failures are never retried \
           past one reproduction probe.")

let inject_faults_arg =
  let faults_conv =
    let parse s =
      Result.map_error (fun msg -> `Msg msg) (Pc.Exec.Faults.of_string s)
    in
    Arg.conv (parse, Fmt.using Pc.Exec.Faults.to_string Fmt.string)
  in
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject-faults" ] ~docv:"SPEC"
        ~doc:
          "Chaos mode: inject seeded faults at job and cache boundaries, \
           e.g. $(b,crash=0.3,delay=0.15,trunc=0.2,corrupt=0.2,seed=7); \
           exits 1 if any point is left unrecovered. Under $(b,pc serve), \
           $(b,wkill=0.3) SIGKILLs workers mid-job (the supervisor \
           restarts them) and $(b,kill-after=20) kills the whole daemon \
           after 20 jobs (a restart recovers).")

let sweep_opts_arg =
  let make jobs no_cache cache_dir resume retries faults audit failures_dir =
    {
      Experiment.jobs;
      no_cache;
      cache_dir;
      resume;
      retries;
      faults;
      audit;
      failures_dir;
    }
  in
  Term.(
    const make $ jobs_arg $ no_cache_arg $ cache_dir_arg $ resume_arg
    $ retries_arg $ inject_faults_arg $ audit_arg $ failures_dir_arg)

(* Runs [f] at the requested telemetry level, then lands the snapshot:
   to [out] as schema-tagged JSON, or rendered on stderr, so stdout
   keeps only the command's own output (one document under --json). A
   violation escapes as an exception (exit code 3) without a snapshot —
   the repro bundle is the artefact that matters on that path. *)
let with_telemetry level out f =
  Pc.Telemetry.Registry.set_level level;
  let result = f () in
  (if level <> Pc.Telemetry.Sink.Off then
     let snap = Pc.Telemetry.Registry.snapshot () in
     match out with
     | Some path ->
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () ->
             output_string oc
               (Json.to_string (Pc.Telemetry.Snapshot.to_json snap));
             output_char oc '\n');
         Fmt.epr "telemetry snapshot written to %s@." path
     | None -> Fmt.epr "@.%a@." (fun ppf -> Pc.Telemetry.Report.pp ppf) snap);
  result

(* The exit-code taxonomy (documented in every subcommand's --help;
   CI keys off code 3). *)
let exits =
  [
    Cmd.Exit.info Pc.Audit.Report.exit_ok ~doc:"on success.";
    Cmd.Exit.info Pc.Audit.Report.exit_usage
      ~doc:
        "on usage errors: unparseable command lines, unknown programs, \
         managers or audit levels, invalid parameters, unreadable repro \
         bundles or ones in an older meta format.";
    Cmd.Exit.info Pc.Audit.Report.exit_violation
      ~doc:
        "on an oracle violation (c-partial budget, live-space bound, \
         structural invariant, kernel-vs-reference divergence, theory \
         floor, PF potential): a repro bundle has been emitted, its path \
         printed. $(b,pc replay) exits with this code when the bundle's \
         violation reproduces.";
    Cmd.Exit.info Pc.Audit.Report.exit_internal
      ~doc:"on internal errors (unexpected exceptions).";
  ]

(* ------------------------------------------------------------------ *)
(* pc bounds                                                          *)

let bounds_cmd =
  let run m n c =
    let mf = float_of_int m in
    Fmt.pr "parameters: M=%a n=%a c=%g@." Pc.Word.pp_count m Pc.Word.pp_count
      n c;
    Fmt.pr "@.lower bounds (no manager can beat these):@.";
    Fmt.pr "  Robson (no compaction)      HS >= %.3f x M@."
      (Pc.Bounds.Robson.waste_factor_pow2 ~m ~n);
    (match Pc.Bounds.Cohen_petrank.best ~m ~n ~c with
    | Some { ell; h } ->
        Fmt.pr "  Theorem 1 (this paper)      HS >= %.3f x M   (l*=%d)@."
          (Float.max h 1.0) ell
    | None ->
        Fmt.pr "  Theorem 1 (this paper)      HS >= 1.000 x M   (no valid l)@.");
    Fmt.pr "  Bendersky-Petrank [4]       HS >= %.3f x M@."
      (Pc.Bounds.Bendersky_petrank.waste_factor ~m ~n ~c);
    Fmt.pr "@.upper bounds (achievable by some manager):@.";
    Fmt.pr "  Bendersky-Petrank (c+1)M    HS <= %.3f x M@."
      (Pc.Bounds.Bendersky_petrank.upper_bound ~m ~c /. mf);
    Fmt.pr "  Robson x2 (no compaction)   HS <= %.3f x M@."
      (Pc.Bounds.Robson.upper_bound_general ~m ~n /. mf);
    if Pc.Bounds.Theorem2.applicable ~n ~c then
      Fmt.pr "  Theorem 2 (this paper)      HS <= %.3f x M@."
        (Pc.Bounds.Theorem2.waste_factor ~m ~n ~c)
  in
  Cmd.v
    (Cmd.info "bounds" ~exits ~doc:"Print the closed-form bounds for M, n, c.")
    Term.(
      const run
      $ m_arg (256 * Pc.Bounds.Params.mb)
      $ n_arg Pc.Bounds.Params.mb $ c_arg 50.0)

(* ------------------------------------------------------------------ *)
(* pc figure                                                          *)

let figure_cmd =
  let run = function
    | 1 ->
        Fmt.pr "c,cohen_petrank,bendersky_petrank,trivial@.";
        List.iter
          (fun (c, ours, bp) -> Fmt.pr "%g,%.4f,%.4f,1.0@." c ours bp)
          (Experiment.fig1_series ())
    | 2 ->
        Fmt.pr "n,cohen_petrank@.";
        List.iter
          (fun (n, h) -> Fmt.pr "%d,%.4f@." n h)
          (Experiment.fig2_series ())
    | _ ->
        Fmt.pr "c,theorem2,prior_best@.";
        List.iter
          (fun (c, t2, prior) -> Fmt.pr "%g,%.4f,%.4f@." c t2 prior)
          (Experiment.fig3_series ())
  in
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("1", 1); ("2", 2); ("3", 3) ])) None
      & info [] ~docv:"FIGURE")
  in
  Cmd.v
    (Cmd.info "figure" ~exits
       ~doc:"Print a paper figure's series as CSV (figures 1, 2, 3).")
    Term.(const run $ which)

(* ------------------------------------------------------------------ *)
(* pc simulate                                                        *)

(* The job `pc simulate` and `pc trace` run, by --program name; e.g.
   --program "script:a x 16; a y 8; f x; a z 4". P_R and scripts run
   unbudgeted. *)
let spec_of_program ?seed ~manager ~m ~n ~c program =
  (* An unknown --manager is reported before any --program error. *)
  ignore (Pc.Managers.construct_exn manager);
  match program with
  | "pf" -> Spec.pf ~c ~manager ~m ~n ()
  | "robson" -> Spec.robson ~manager ~m ~n ()
  | "pw" -> Spec.pw ~c ~manager ~m ~n ()
  | "sawtooth" -> Spec.sawtooth ~c ~manager ~m ~n ()
  | "random" ->
      Spec.random_churn ?seed ~c ~manager ~m
        ~dist:(Spec.Pow2 { lo_log = 0; hi_log = Pc.Word.log2_floor n })
        ~target_live:(m / 2) ()
  | p when String.starts_with ~prefix:"script:" p ->
      Spec.script ~manager (String.sub p 7 (String.length p - 7))
  | p ->
      Fmt.invalid_arg
        "unknown program %s (expected pf, robson, pw, sawtooth, random, \
         script:...)"
        p

let program_arg default =
  Arg.(
    value & opt string default
    & info [ "program" ] ~docv:"NAME"
        ~doc:
          "Workload: pf, robson, pw, sawtooth, random, or \
           'script:a x 16; f x; ...'.")

let simulate_cmd =
  let run program manager m n c seed audit broken_budget failures_dir
      telemetry telemetry_out json =
    with_telemetry telemetry telemetry_out @@ fun () ->
    let spec = spec_of_program ~seed ~manager ~m ~n ~c program in
    let o = Spec.run ~audit ~broken_budget ?failures_dir spec in
    if json then
      Fmt.pr "%s@." (Json.to_string (Pc.Exec.Cache.outcome_to_json o))
    else begin
      Fmt.pr "%a@." Pc.Runner.pp_outcome o;
      match spec.workload with
      | Pf _ ->
          let cfg = Pc.Pf.config ~m ~n ~c () in
          Fmt.pr "theory: h=%.3f (l=%d) => HS/M should reach %.3f at scale@."
            cfg.h cfg.ell (Float.max cfg.h 1.0)
      | Robson _ ->
          Fmt.pr "theory (non-moving managers): HS/M >= %.3f@."
            (Pc.Bounds.Robson.waste_factor_pow2 ~m ~n)
      | _ -> ()
    end
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let broken_budget_arg =
    Arg.(
      value & flag
      & info [ "broken-budget" ]
          ~doc:
            "Audit drill: run with the enforced compaction budget lifted \
             while the oracle still audits the declared $(b,c) — models a \
             manager whose budget debit is broken. With --audit on, the \
             first over-budget move trips the budget oracle, emits a \
             minimized repro bundle and exits with code 3.")
  in
  Cmd.v
    (Cmd.info "simulate" ~exits
       ~doc:"Run an adversary or random workload against a manager.")
    Term.(
      const run $ program_arg "pf" $ manager_arg
      $ m_arg (1 lsl 14)
      $ n_arg (1 lsl 6)
      $ c_arg 8.0 $ seed_arg $ audit_arg $ broken_budget_arg
      $ failures_dir_arg $ telemetry_arg $ telemetry_out_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* pc diagram                                                         *)

let diagram_cmd =
  let run m n manager =
    let _, trace = Spec.record (Spec.robson ~manager ~m ~n ()) in
    let heap = Result.get_ok (Pc.Trace.replay trace) in
    Fmt.pr "Robson's P_R vs %s (M=%d, n=%d): HS/M=%.3f@." manager m n
      (float_of_int (Pc.Heap.high_water heap) /. float_of_int m);
    Fmt.pr "%s@."
      (Pc.Layout.render
         ~config:
           {
             Pc.Layout.words_per_cell = max 1 (Pc.Heap.high_water heap / 4096);
             cells_per_row = 64;
             chunk_words = Some n;
           }
         heap)
  in
  Cmd.v
    (Cmd.info "diagram" ~exits
       ~doc:"Render the heap Robson's adversary leaves behind, as ASCII.")
    Term.(const run $ m_arg 256 $ n_arg 16 $ manager_arg)

(* ------------------------------------------------------------------ *)
(* pc trace                                                           *)

let trace_cmd =
  let run program manager m n c stats_only =
    let _, trace = Spec.record (spec_of_program ~manager ~m ~n ~c program) in
    if stats_only then Fmt.pr "%a@." Pc.Trace.pp_stats (Pc.Trace.stats trace)
    else print_string (Pc.Trace.to_string trace)
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print aggregate statistics instead of events.")
  in
  Cmd.v
    (Cmd.info "trace" ~exits
       ~doc:
         "Dump a replayable heap event trace (or its statistics) of a \
          workload against a manager.")
    Term.(
      const run $ program_arg "robson" $ manager_arg
      $ m_arg (1 lsl 10)
      $ n_arg (1 lsl 5)
      $ c_arg 8.0 $ stats_arg)

(* ------------------------------------------------------------------ *)
(* pc sweep                                                           *)

let sweep_cmd =
  let run manager m n cs sweep telemetry telemetry_out json =
    (* Each (c, manager) point is a deterministic job spec: points run
       on the engine's Domain pool, completed points are served from
       the on-disk result cache on re-runs, and every outcome is
       journaled as it lands so a killed sweep resumes with --resume. *)
    let module Engine = Pc.Exec.Engine in
    let module Checkpoint = Pc.Exec.Checkpoint in
    let specs = List.map (fun c -> Spec.pf ~c ~manager ~m ~n ()) cs in
    let on_journal cp =
      if Checkpoint.loaded cp > 0 then
        Fmt.pr "resuming: %d of %d outcome(s) journaled in %s@."
          (Checkpoint.loaded cp) (List.length specs) (Checkpoint.path_of cp)
    in
    let results, summary =
      with_telemetry telemetry telemetry_out @@ fun () ->
      Experiment.run_sweep ~on_journal sweep specs
    in
    let source (r : Engine.job_result) =
      if r.from_cache then "cache"
      else if r.from_journal then "journal"
      else "run"
    in
    if json then begin
      let points =
        List.map2
          (fun c (r : Engine.job_result) ->
            let cfg = Pc.Pf.config ~m ~n ~c () in
            let base =
              [
                ("c", Json.Float c);
                ("ell", Json.Int cfg.ell);
                ("theory_h", Json.Float (Float.max cfg.h 1.0));
              ]
            in
            match r.result with
            | Error msg -> Json.Obj (base @ [ ("error", Json.String msg) ])
            | Ok o ->
                Json.Obj
                  (base
                  @ [
                      ("outcome", Pc.Exec.Cache.outcome_to_json o);
                      ("source", Json.String (source r));
                    ]))
          cs results
      in
      Fmt.pr "%s@."
        (Json.to_string
           (Json.Obj
              [
                ("points", Json.List points);
                ("summary", Json.Obj (Experiment.summary_fields summary));
              ]))
    end
    else begin
      Fmt.pr "%6s %4s %10s %10s %8s %10s %7s@." "c" "l" "theory h" "HS/M"
        "moved" "compliant" "source";
      List.iter2
        (fun c (r : Engine.job_result) ->
          match r.result with
          | Error msg -> Fmt.epr "c=%g: %s@." c msg
          | Ok o ->
              let cfg = Pc.Pf.config ~m ~n ~c () in
              Fmt.pr "%6g %4d %10.3f %10.3f %8d %10b %7s@." c cfg.ell
                (Float.max cfg.h 1.0) o.hs_over_m o.moved o.compliant (source r))
        cs results;
      Fmt.pr "%a@." Engine.pp_summary summary
    end;
    if summary.violations > 0 then exit Pc.Audit.Report.exit_violation;
    if sweep.faults <> None && summary.failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sweep" ~exits
       ~doc:
         "Sweep PF over compaction bounds against one manager (Table S1), \
          in parallel, with result caching, checkpoint/resume and optional \
          fault injection.")
    Term.(
      const run $ manager_arg
      $ m_arg (1 lsl 14)
      $ n_arg (1 lsl 7)
      $ cs_arg Pc.Bounds.Params.sim_cs
      $ sweep_opts_arg $ telemetry_arg $ telemetry_out_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* pc experiment                                                      *)

let experiment_cmd =
  let run sweep small telemetry telemetry_out json selected =
    let code =
      with_telemetry telemetry telemetry_out @@ fun () ->
      Experiment.run ~sweep ~small ~json selected
    in
    if code <> Pc.Audit.Report.exit_ok then exit code
  in
  let small_arg =
    Arg.(
      value & flag
      & info [ "small" ]
          ~doc:"Toy scales: every table in seconds (smoke runs, CI).")
  in
  let names_arg =
    let names = List.map (fun n -> (n, n)) Experiment.names in
    Arg.(
      value
      & pos_all (enum names) []
      & info [] ~docv:"NAME"
          ~doc:
            ("Experiments to run, in this order whatever the order given \
              (default: all): " ^ String.concat ", " Experiment.names ^ "."))
  in
  Cmd.v
    (Cmd.info "experiment" ~exits
       ~doc:
         "Print the paper's figures (fig1-fig3) and the simulated tables \
          (S1-S4, the simulated Figure 1, the ablations). Every simulated \
          point runs through the sweep engine, like $(b,pc sweep). With \
          $(b,--json), print one document instead: each sweep's summary \
          (no wall-clock) and the zoo rows.")
    Term.(
      const run $ sweep_opts_arg $ small_arg $ telemetry_arg
      $ telemetry_out_arg $ json_arg $ names_arg)

(* ------------------------------------------------------------------ *)
(* pc replay                                                          *)

let replay_cmd =
  let run bundle =
    match Pc.Audit.Report.replay bundle with
    | Error msg ->
        Fmt.epr "cannot replay %s: %s@." bundle msg;
        exit Pc.Audit.Report.exit_usage
    | Ok (Some v) ->
        Fmt.pr "%a@." Pc.Audit.Oracle.pp_violation v;
        Fmt.pr "violation reproduced from %s@." bundle;
        exit Pc.Audit.Report.exit_violation
    | Ok None -> Fmt.pr "violation did not reproduce from %s@." bundle
  in
  let bundle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:
            "A repro-bundle directory emitted on an oracle violation \
             (e.g. $(b,_pc_failures/budget-0123456789ab)).")
  in
  Cmd.v
    (Cmd.info "replay" ~exits
       ~doc:
         "Replay a repro bundle's minimized trace against its recorded \
          oracle; exits with code 3 if the violation reproduces, 0 if it no \
          longer trips.")
    Term.(const run $ bundle_arg)

(* ------------------------------------------------------------------ *)
(* pc report                                                          *)

let report_cmd =
  let run file top csv =
    let text =
      match In_channel.with_open_bin file In_channel.input_all with
      | text -> text
      | exception Sys_error msg ->
          Fmt.epr "pc report: %s@." msg;
          exit Pc.Audit.Report.exit_usage
    in
    let parsed =
      match Json.of_string text with
      | j -> Pc.Telemetry.Snapshot.of_json j
      | exception Json.Parse_error msg -> Error ("bad JSON: " ^ msg)
    in
    match parsed with
    | Error msg ->
        Fmt.epr "pc report: %s: %s@." file msg;
        exit Pc.Audit.Report.exit_usage
    | Ok snap ->
        if csv then print_string (Pc.Telemetry.Snapshot.to_csv snap)
        else Fmt.pr "%a@." (fun ppf -> Pc.Telemetry.Report.pp ~top ppf) snap
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SNAPSHOT"
          ~doc:
            "A telemetry snapshot (schema $(b,pc-telemetry/1)) written by \
             $(b,--telemetry-out).")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Show the $(docv) hottest per-job spans (default 5).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit the snapshot as one wide CSV table (one row per \
             instrument) instead of the rendered report.")
  in
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:
         "Render a telemetry snapshot: per-phase span breakdown, the \
          hottest sweep jobs, counters, gauges and histograms.")
    Term.(const run $ file_arg $ top_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* pc serve / submit / health / drain / load                          *)

let default_state_dir = "_pc_serve"
let default_socket state_dir = Filename.concat state_dir "pc.sock"

let state_dir_arg =
  Arg.(
    value & opt string default_state_dir
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "The daemon's state directory: per-tenant result caches, \
           checkpoint journals and submission manifests live under \
           $(docv)/tenants/, guarded by $(docv)/serve.lock.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on (default: \
           $(b,<state-dir>/pc.sock)).")

let client_socket_arg =
  Arg.(
    value
    & opt string (default_socket default_state_dir)
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"The daemon's Unix-domain socket.")

let tenant_arg =
  Arg.(
    value & opt string "default"
    & info [ "tenant" ] ~docv:"NAME"
        ~doc:
          "Tenant to submit as; each tenant gets its own result cache, \
           journals and quota under the daemon's state dir.")

(* Client commands exit with the usage code when the daemon is not
   there to talk to — a wrong --socket is a command-line problem. *)
let with_client socket f =
  match Pc.Serve.Client.with_conn socket f with
  | v -> v
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT) as e, _, _) ->
      Fmt.epr "pc: cannot connect to %s: %s (is `pc serve` running?)@." socket
        (Unix.error_message e);
      exit Pc.Audit.Report.exit_usage

let serve_cmd =
  let run socket state_dir workers queue_cap tenant_cap faults telemetry
      telemetry_out =
    let socket =
      match socket with Some s -> s | None -> default_socket state_dir
    in
    let cfg =
      Pc.Serve.Server.config ~workers ~queue_cap ~tenant_cap ?faults ~socket
        ~state_dir ()
    in
    with_telemetry telemetry telemetry_out @@ fun () ->
    let t = Pc.Serve.Server.start cfg in
    (* The handler only flips an atomic; the accept loop's next tick
       starts the actual drain outside signal context. *)
    let graceful =
      Sys.Signal_handle (fun _ -> Pc.Serve.Server.request_drain t)
    in
    Sys.set_signal Sys.sigterm graceful;
    Sys.set_signal Sys.sigint graceful;
    Fmt.pr "pc serve: listening on %s (state %s, %d worker(s))@." socket
      state_dir workers;
    match Pc.Serve.Server.wait t with
    | Pc.Serve.Server.Drained -> Fmt.pr "pc serve: drained cleanly@."
    | Pc.Serve.Server.Killed why ->
        Fmt.epr "pc serve: killed: %s@." why;
        exit Pc.Audit.Report.exit_internal
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Worker domains executing jobs (each restarts on death).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission bound on unfinished jobs across all tenants; \
             beyond it submissions get $(b,retry-after) backpressure.")
  in
  let tenant_cap_arg =
    Arg.(
      value & opt int 128
      & info [ "tenant-cap" ] ~docv:"N"
          ~doc:"The same bound per tenant (quota isolation).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the sweep daemon: accept job submissions from many clients \
          over a Unix-domain socket, execute them on a supervised \
          (self-restarting) worker pool with per-tenant caches, journals \
          and quotas, survive kills via checkpoint replay, and drain \
          gracefully on SIGTERM or $(b,pc drain).")
    Term.(
      const run $ socket_arg $ state_dir_arg $ workers_arg $ queue_cap_arg
      $ tenant_cap_arg $ inject_faults_arg $ telemetry_arg $ telemetry_out_arg)

let submit_cmd =
  let run socket tenant manager m n cs retries local json =
    let specs = List.map (fun c -> Spec.pf ~c ~manager ~m ~n ()) cs in
    let with_server k =
      if not local then begin
        (* Fail fast (usage code) when there is no daemon at all; once
           one was there, submit_and_wait rides out restarts. *)
        with_client socket ignore;
        k socket
      end
      else begin
        (* --local: an ephemeral in-process daemon on a fresh temp
           state dir — nothing cached, nothing resumed, so the JSON
           output is deterministic (the golden test relies on it). *)
        let dir = Filename.temp_dir "pc-serve-local" "" in
        let socket = Filename.concat dir "pc.sock" in
        let cfg =
          Pc.Serve.Server.config ~workers:2 ~socket
            ~state_dir:(Filename.concat dir "state") ()
        in
        let t = Pc.Serve.Server.start cfg in
        Fun.protect
          ~finally:(fun () ->
            Pc.Serve.Server.drain t;
            ignore (Pc.Serve.Server.wait t))
          (fun () -> k socket)
      end
    in
    with_server @@ fun socket ->
    let r =
      Pc.Serve.Client.submit_and_wait ~socket ~tenant ~retries specs
    in
    let id, total, known = (r.Pc.Serve.Client.id, r.total, r.known) in
    let state, progress = (r.state, r.progress) in
    let results = r.outcomes in
    let violated =
      List.exists
        (function
          | _, Error msg -> String.starts_with ~prefix:"oracle violation" msg
          | _, Ok _ -> false)
        results
    in
    if json then begin
      let jresults =
        List.map
          (fun (key, r) ->
            Json.Obj
              (("key", Json.String key)
              ::
              (match r with
              | Ok o -> [ ("outcome", Pc.Exec.Cache.outcome_to_json o) ]
              | Error msg -> [ ("error", Json.String msg) ])))
          results
      in
      Fmt.pr "%s@."
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.String id);
                ("tenant", Json.String tenant);
                ("state", Json.String state);
                ("total", Json.Int total);
                ("failed", Json.Int progress.Pc.Serve.Protocol.failed);
                ("results", Json.List jresults);
              ]))
    end
    else begin
      Fmt.pr "submission %s (%s): %s, %d job(s), %d failed%s@." id tenant
        state total progress.Pc.Serve.Protocol.failed
        (if known then " [deduplicated]" else "");
      List.iter
        (fun (key, r) ->
          match r with
          | Ok (o : Pc.Runner.outcome) ->
              Fmt.pr "  %-48s HS/M=%.3f compliant=%b@." key o.hs_over_m
                o.compliant
          | Error msg -> Fmt.pr "  %-48s FAILED: %s@." key msg)
        results
    end;
    if violated then exit Pc.Audit.Report.exit_violation
  in
  let local_arg =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:
            "Spin up an ephemeral in-process daemon on a fresh temp state \
             dir, submit to it, and drain it afterwards — no running \
             $(b,pc serve) needed. Output is deterministic (everything \
             executes, nothing is cached), so it is diffable.")
  in
  Cmd.v
    (Cmd.info "submit" ~exits
       ~doc:
         "Submit a PF sweep to a running $(b,pc serve) daemon (with \
          exponential backoff under backpressure), wait for completion, \
          and print the journaled results. Exits 3 if any job died on an \
          oracle violation.")
    Term.(
      const run $ client_socket_arg $ tenant_arg $ manager_arg
      $ m_arg (1 lsl 12)
      $ n_arg (1 lsl 6)
      $ cs_arg [ 8.0; 16.0 ]
      $ retries_arg $ local_arg $ json_arg)

let health_cmd =
  let run socket json =
    let h = with_client socket Pc.Serve.Client.health in
    if json then
      Fmt.pr "%s@."
        (Json.to_string (Json.Obj (Pc.Serve.Protocol.health_fields h)))
    else
      Fmt.pr
        "queue: %d pending, %d in flight on %d worker(s) (%d restart(s))@.\
         work:  %d submission(s) over %d tenant(s); %d job(s) done (%d \
         executed, %d cache hits)@.state: %s@."
        h.Pc.Serve.Protocol.pending h.in_flight h.workers h.restarts
        h.submissions h.tenants h.jobs_done h.executed h.cache_hits
        (if h.draining then "draining" else "serving")
  in
  Cmd.v
    (Cmd.info "health" ~exits
       ~doc:
         "Query a running daemon's health: queue depth, in-flight jobs, \
          worker restarts, per-tenant activity, drain state.")
    Term.(const run $ client_socket_arg $ json_arg)

let drain_cmd =
  let run socket wait =
    with_client socket Pc.Serve.Client.drain;
    Fmt.pr "drain requested: the daemon finishes queued work, then exits@.";
    if wait then begin
      (* The daemon unlinks its socket as the last act of a drain;
         poll until connecting fails. *)
      let rec poll () =
        match Pc.Serve.Client.with_conn socket Pc.Serve.Client.health with
        | _ ->
            Unix.sleepf 0.1;
            poll ()
        | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
            Fmt.pr "daemon exited@."
      in
      poll ()
    end
  in
  let wait_arg =
    Arg.(
      value & flag
      & info [ "wait" ] ~doc:"Block until the daemon has actually exited.")
  in
  Cmd.v
    (Cmd.info "drain" ~exits
       ~doc:
         "Ask a running daemon to shut down gracefully: stop admitting, \
          finish every queued and in-flight job, release the state dir.")
    Term.(const run $ client_socket_arg $ wait_arg)

let load_cmd =
  let run socket clients submissions jobs_per manager m =
    (* Distinct random-churn seeds make every submission a distinct
       sweep — no dedup, no cache hits across submissions — so the
       numbers measure the daemon, not the cache. *)
    let subs =
      Array.init submissions (fun i ->
          let specs =
            List.init jobs_per (fun k ->
                Spec.random_churn
                  ~seed:((i * jobs_per) + k)
                  ~churn:512 ~c:8.0 ~manager ~m
                  ~dist:(Spec.Pow2 { lo_log = 0; hi_log = 4 })
                  ~target_live:(m / 2) ())
          in
          (Printf.sprintf "load-%d" (i mod 4), specs, 2))
    in
    let r = Pc.Serve.Client.load ~socket ~clients ~submissions:subs in
    let p q = Pc.Serve.Client.percentile r.latencies q *. 1000. in
    Fmt.pr
      "%d client(s), %d submission(s), %d job(s): %.2fs wall, %.1f jobs/s@."
      r.clients submissions r.jobs r.wall
      (float_of_int r.jobs /. r.wall);
    Fmt.pr
      "latency p50=%.1fms p90=%.1fms p99=%.1fms; %d backoff round(s), %d \
       worker restart(s), %d failed job(s)@."
      (p 0.5) (p 0.9) (p 0.99) r.submit_retries r.restarts_seen r.failed;
    if r.failed > 0 then exit 1
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let submissions_arg =
    Arg.(
      value & opt int 16
      & info [ "submissions" ] ~docv:"N" ~doc:"Total submissions to push.")
  in
  let jobs_per_arg =
    Arg.(
      value & opt int 4
      & info [ "jobs-per" ] ~docv:"N" ~doc:"Jobs per submission.")
  in
  Cmd.v
    (Cmd.info "load" ~exits
       ~doc:
         "Saturation-test a running daemon: hammer it with concurrent \
          clients and report throughput, latency percentiles, backoff \
          rounds and worker restarts.")
    Term.(
      const run $ client_socket_arg $ clients_arg $ submissions_arg
      $ jobs_per_arg $ manager_arg
      $ m_arg (1 lsl 10))

(* ------------------------------------------------------------------ *)
(* pc managers                                                        *)

let managers_cmd =
  let run () =
    List.iter
      (fun (e : Pc.Managers.entry) ->
        Fmt.pr "%-16s %-7s %s@." e.key
          (if e.moving then "moving" else "static")
          e.summary)
      (Pc.Managers.entries ())
  in
  Cmd.v
    (Cmd.info "managers" ~exits ~doc:"List the available memory managers.")
    Term.(const run $ const ())

let () =
  (* -v / -vv on any subcommand raises the log level (info / debug). *)
  let verbosity =
    Array.fold_left
      (fun acc a -> if a = "-v" then acc + 1 else acc)
      0 Sys.argv
  in
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (match verbosity with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug);
  let argv = Array.of_list (List.filter (fun a -> a <> "-v") (Array.to_list Sys.argv)) in
  let doc = "bounds and simulators for partial heap compaction (PLDI'13)" in
  let group =
    Cmd.group
      (Cmd.info "pc" ~version:"1.0.0" ~doc ~exits)
      [
        bounds_cmd;
        figure_cmd;
        simulate_cmd;
        sweep_cmd;
        experiment_cmd;
        serve_cmd;
        submit_cmd;
        health_cmd;
        drain_cmd;
        load_cmd;
        trace_cmd;
        diagram_cmd;
        replay_cmd;
        report_cmd;
        managers_cmd;
      ]
  in
  (* Exceptions escape Cmdliner (~catch:false) so they can be mapped
     onto the exit-code taxonomy; Cmdliner's own cli_error (124) is
     remapped onto the shared usage code. *)
  let code =
    try
      match Cmd.eval ~argv ~catch:false group with
      | c when c = Cmd.Exit.cli_error -> Pc.Audit.Report.exit_usage
      | c -> c
    with
    | Pc.Audit.Report.Reported b ->
        Fmt.epr "%a@." Pc.Audit.Report.pp_bundle b;
        Pc.Audit.Report.exit_violation
    | Pc.Audit.Oracle.Violation v ->
        Fmt.epr "%a@." Pc.Audit.Oracle.pp_violation v;
        Pc.Audit.Report.exit_violation
    | Pc.Budget.Exceeded { requested; available } ->
        Fmt.epr "compaction budget exceeded: move of %d requested, %d left@."
          requested available;
        Pc.Audit.Report.exit_violation
    | Pc.Pf.Audit_failure { step; delta_u; floor } ->
        Fmt.epr "PF potential audit failed at step %d: delta_u=%d < floor %d@."
          step delta_u floor;
        Pc.Audit.Report.exit_violation
    | Pc.Exec.Lockfile.Locked _ as e ->
        Fmt.epr "pc: %s@." (Printexc.to_string e);
        Pc.Audit.Report.exit_usage
    | Pc.Serve.Client.Protocol_error msg ->
        Fmt.epr "pc: %s@." msg;
        Pc.Audit.Report.exit_internal
    | Invalid_argument msg | Pc.Script.Bad_script msg ->
        Fmt.epr "pc: %s@." msg;
        Pc.Audit.Report.exit_usage
    | e ->
        Fmt.epr "pc: internal error: %s@." (Printexc.to_string e);
        Pc.Audit.Report.exit_internal
  in
  exit code
