(* The paper's experiment tables, behind `pc experiment NAME...`, and
   the sweep helper they share with `pc sweep`.

     fig1        lower bound h vs c (this paper vs [4] vs trivial)
     fig2        lower bound h vs n (c = 100, M = 256n)
     fig3        upper bound vs c (Theorem 2 vs prior best)
     sim-lower   measured HS(A, PF)/M vs Theorem 1 h, per c
     sim-upper   measured HS(A, PR)/M vs Robson's bound, per n;
                 upper-bound managers vs their guarantees
     sim-average random-workload fragmentation per manager
     sim-fig1    measured waste-vs-c curve (the simulated Figure 1)
     ablation    design-choice ablations A1-A4 (see EXPERIMENTS.md)
     sim-zoo     literature managers (meshing, compact-fit,
                 cost-oblivious, polylog-realloc) vs the paper's bounds

   Every simulated table builds its full grid of job specs first, runs
   it in one engine call (maximal parallelism), then renders. *)

open Pc_core
module Spec = Pc.Exec.Spec
module Engine = Pc.Exec.Engine
module Checkpoint = Pc.Exec.Checkpoint
module Lockfile = Pc.Exec.Lockfile
module Json = Pc.Json

(* ------------------------------------------------------------------ *)
(* Sweeps                                                             *)

type sweep_opts = {
  jobs : int;
  no_cache : bool;
  cache_dir : string option;
  resume : bool;
  retries : int;
  faults : Pc.Exec.Faults.t option;
  audit : Pc.Audit.Oracle.level;
  failures_dir : string option;
}

(* Runs [specs] through the engine. With the cache on, the sweep also
   journals every outcome under <cache-dir>/sweeps/ as it lands, so a
   run killed mid-sweep resumes with --resume, and it holds the
   journal's lock, so a second writer on the same sweep (another pc
   process or a daemon replaying it) fails fast instead of interleaving
   appends. --no-cache means "leave no trace and read no prior state":
   no cache, no journal, no lock. [on_journal] sees the journal once it
   is loaded. *)
let run_sweep ?(on_journal = ignore) o specs =
  let cache, lock, checkpoint =
    if o.no_cache then (None, None, None)
    else begin
      let cache = Pc.Exec.Cache.create ?dir:o.cache_dir () in
      let dir = Checkpoint.default_dir ~cache_dir:(Pc.Exec.Cache.dir cache) in
      let lock = Lockfile.acquire (Checkpoint.path ~dir specs ^ ".lock") in
      let cp = Checkpoint.open_ ~resume:o.resume ~dir specs in
      on_journal cp;
      (Some cache, Some lock, Some cp)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Checkpoint.close checkpoint;
      Option.iter Lockfile.release lock)
    (fun () ->
      Engine.run ~jobs:o.jobs ?cache ?checkpoint ~retries:o.retries
        ?faults:o.faults ~audit:o.audit ?failures_dir:o.failures_dir specs)

(* A summary as JSON fields. No wall-clock field: the JSON forms are
   diffable across runs. *)
let summary_fields (s : Engine.summary) =
  [
    ("total", Json.Int s.total);
    ("executed", Json.Int s.executed);
    ("cached", Json.Int s.cached);
    ("resumed", Json.Int s.resumed);
    ("recovered", Json.Int s.recovered);
    ("retried", Json.Int s.retried);
    ("failed", Json.Int s.failed);
    ("violations", Json.Int s.violations);
  ]

(* ------------------------------------------------------------------ *)
(* Figure series, shared with `pc figure`                             *)

let fig1_series () =
  List.map
    (fun c ->
      let { Pc.Bounds.Params.m; n; _ } = Pc.Bounds.Params.fig1 ~c in
      ( c,
        Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c,
        Pc.Bounds.Bendersky_petrank.waste_factor ~m ~n ~c ))
    Pc.Bounds.Params.fig1_cs

let fig2_series () =
  List.map
    (fun n ->
      let { Pc.Bounds.Params.m; n; c } = Pc.Bounds.Params.fig2 ~n in
      (n, Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c))
    Pc.Bounds.Params.fig2_ns

let fig3_series () =
  List.filter_map
    (fun c ->
      let { Pc.Bounds.Params.m; n; _ } = Pc.Bounds.Params.fig3 ~c in
      if Pc.Bounds.Theorem2.applicable ~n ~c then
        Some
          ( c,
            Pc.Bounds.Theorem2.waste_factor ~m ~n ~c,
            Pc.Bounds.Theorem2.prior_best ~m ~n ~c /. float_of_int m )
      else None)
    Pc.Bounds.Params.fig3_cs

(* ------------------------------------------------------------------ *)
(* One experiment run                                                 *)

type t = {
  sweep : sweep_opts;
  small : bool;  (* toy scales: quick smoke runs, CI *)
  out : Format.formatter;  (* stdout, or a sink under --json *)
  mutable summaries : (string * Engine.summary) list;  (* newest first *)
  mutable zoo : Json.t list;  (* newest first *)
}

let line t fmt = Fmt.pf t.out (fmt ^^ "@.")

(* Runs one table's grid, each point once (first occurrences, in
   order), and returns a lookup from spec to its result. *)
let sweep t name specs =
  let seen = Hashtbl.create (2 * List.length specs) in
  let specs =
    List.filter
      (fun spec ->
        let key = Spec.key spec in
        (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
      specs
  in
  let results, summary = run_sweep t.sweep specs in
  line t "    [%s: %a]" name Engine.pp_summary summary;
  t.summaries <- (name, summary) :: t.summaries;
  let tbl = Hashtbl.create (2 * List.length specs) in
  List.iter
    (fun (r : Engine.job_result) ->
      Hashtbl.replace tbl (Spec.key r.spec) r.result)
    results;
  fun spec -> Hashtbl.find tbl (Spec.key spec)

let hs_over_m = function
  | Ok (o : Pc.Runner.outcome) -> o.hs_over_m
  | Error _ -> Float.nan

let hs_over_live (o : Pc.Runner.outcome) =
  float_of_int o.hs /. float_of_int (max 1 o.final_live)

(* ------------------------------------------------------------------ *)
(* Figures 1-3                                                        *)

let fig1 t =
  line t "=== Figure 1: lower bound on the waste factor h vs c ===";
  line t
    "    (M = 256MB, n = 1MB; paper anchors: ~2.0 at c=10, ~3.15 at c=50, \
     ~3.5 at c=100)";
  line t "%6s  %12s  %18s  %8s" "c" "this paper" "Bendersky-Petrank" "trivial";
  List.iter
    (fun (c, ours, bp) -> line t "%6.0f  %12.3f  %18.3f  %8.1f" c ours bp 1.0)
    (fig1_series ())

let fig2 t =
  line t "=== Figure 2: lower bound on the waste factor h vs n ===";
  line t "    (c = 100, M = 256n)";
  line t "%10s  %10s" "n" "h";
  List.iter
    (fun (n, h) -> line t "%10s  %10.3f" (Fmt.str "%a" Pc.Word.pp_count n) h)
    (fig2_series ())

let fig3 t =
  line t "=== Figure 3: upper bound on the waste factor vs c ===";
  line t "    (M = 256MB, n = 1MB; reconstruction — see EXPERIMENTS.md)";
  line t "%6s  %12s  %12s  %12s" "c" "Theorem 2" "prior best" "improvement";
  List.iter
    (fun (c, t2, prior) ->
      line t "%6.0f  %12.3f  %12.3f  %11.1f%%" c t2 prior
        (100.0 *. (prior -. t2) /. prior))
    (fig3_series ())

(* ------------------------------------------------------------------ *)
(* Table S1: PF vs c-partial managers, measured vs theory             *)

let sim_lower t =
  let m, n = if t.small then (1 lsl 16, 1 lsl 8) else (1 lsl 22, 1 lsl 11) in
  let cs = Pc.Bounds.Params.sim_cs in
  let managers = [ "compacting"; "improved-ac"; "first-fit" ] in
  let spec c manager = Spec.pf ~c ~manager ~m ~n () in
  line t "=== Table S1: measured HS(A, PF)/M vs Theorem 1 (M=%d, n=%d) ===" m n;
  line t "    (theory: no c-partial manager can stay below h at scale)";
  let find =
    sweep t "sim-lower"
      (List.concat_map (fun c -> List.map (spec c) managers) cs)
  in
  line t "%6s %4s %10s | %12s %12s %10s" "c" "l" "theory h" "compacting"
    "improved-ac" "first-fit";
  List.iter
    (fun c ->
      let cfg = Pc.Pf.config ~m ~n ~c () in
      let v manager = hs_over_m (find (spec c manager)) in
      line t "%6.0f %4d %10.3f | %12.3f %12.3f %10.3f" c cfg.ell
        (Float.max cfg.h 1.0) (v "compacting") (v "improved-ac")
        (v "first-fit"))
    cs

(* ------------------------------------------------------------------ *)
(* Table S2: Robson's PR vs managers, measured vs matching bound      *)

let sim_upper t =
  let m = if t.small then 1 lsl 14 else 1 lsl 16 in
  let ns = [ 1 lsl 4; 1 lsl 6; 1 lsl 8 ] in
  let managers = [ "first-fit"; "aligned-fit"; "buddy"; "best-fit" ] in
  let robson_spec n manager = Spec.robson ~manager ~m ~n () in
  let pf_n = 1 lsl 6 in
  let pf_spec manager = Spec.pf ~c:8.0 ~manager ~m ~n:pf_n () in
  line t "=== Table S2: measured HS(A, PR)/M vs Robson's matching bound \
          (M=%d) ===" m;
  line t "    (every non-moving manager must be >= the bound; A_o meets it)";
  let find =
    sweep t "sim-upper"
      (List.concat_map (fun n -> List.map (robson_spec n) managers) ns
      @ [ pf_spec "bp-simple"; pf_spec "improved-ac" ])
  in
  line t "%8s %10s | %10s %12s %10s %10s" "n" "bound" "first-fit"
    "aligned-fit" "buddy" "best-fit";
  List.iter
    (fun n ->
      let bound = Pc.Bounds.Robson.waste_factor_pow2 ~m ~n in
      let v manager = hs_over_m (find (robson_spec n manager)) in
      line t "%8d %10.3f | %10.3f %12.3f %10.3f %10.3f" n bound
        (v "first-fit") (v "aligned-fit") (v "buddy") (v "best-fit"))
    ns;
  line t "";
  line t "    upper-bound managers vs their guarantees (PF workload, c = 8):";
  let bp = hs_over_m (find (pf_spec "bp-simple")) in
  line t "    bp-simple: HS/M = %.3f <= (c+1) = %.1f  [%s]" bp 9.0
    (if bp <= 9.0 then "ok" else "VIOLATED");
  (* Theorem 2's side condition needs c > log(n)/2 = 3: report the
     Theorem-2-inspired manager against the (reconstructed) bound. At
     simulation scale the bound is far from tight — reported for
     completeness, not asserted. *)
  line t "    improved-ac: HS/M = %.3f (Theorem 2 reconstruction: %.3f)"
    (hs_over_m (find (pf_spec "improved-ac")))
    (Pc.Bounds.Theorem2.waste_factor ~m ~n:pf_n ~c:8.0)

(* ------------------------------------------------------------------ *)
(* Table S3: random workloads — the average case                      *)

let sim_average t =
  let m = if t.small then 1 lsl 14 else 1 lsl 16 in
  let churn = 20_000 in
  let spec manager =
    Spec.random_churn ~seed:7 ~churn ~c:8.0 ~manager ~m
      ~dist:(Pc.Random_workload.Pow2 { lo_log = 0; hi_log = 6 })
      ~target_live:(m / 2) ()
  in
  line t "=== Table S3: random churn (M=%d): fragmentation by manager ===" m;
  line t "    (average case — far from the adversarial worst case)";
  let keys =
    List.map (fun (e : Pc.Managers.entry) -> e.key) (Pc.Managers.entries ())
  in
  let find = sweep t "sim-average" (List.map spec keys) in
  line t "%-12s %10s %10s %10s" "manager" "HS/M" "HS/live" "moved";
  List.iter
    (fun key ->
      match find (spec key) with
      | Ok o ->
          line t "%-12s %10.3f %10.3f %10d" key o.hs_over_m (hs_over_live o)
            o.moved
      | Error msg -> line t "%-12s failed: %s" key msg)
    keys

(* ------------------------------------------------------------------ *)
(* Simulated Figure 1: the lower-bound curve, measured               *)

let sim_fig1 t =
  let m, n = if t.small then (1 lsl 15, 1 lsl 7) else (1 lsl 22, 1 lsl 11) in
  let cs = [ 6.0; 8.0; 12.0; 16.0; 24.0; 32.0; 48.0; 64.0 ] in
  let managers = [ "compacting"; "improved-ac"; "sliding"; "bp-simple" ] in
  let spec c manager = Spec.pf ~c ~manager ~m ~n () in
  line t "=== Simulated Figure 1: measured waste vs c (M=%d, n=%d) ===" m n;
  line t
    "    (best = the smallest HS/M any of our c-partial managers achieves \
     against PF; theory says best >= h)";
  let find =
    sweep t "sim-fig1"
      (List.concat_map (fun c -> List.map (spec c) managers) cs)
  in
  line t "%6s %10s %10s %14s" "c" "theory h" "best" "best manager";
  List.iter
    (fun c ->
      let candidates =
        List.filter_map
          (fun key ->
            match find (spec c key) with
            | Ok o -> Some (o.hs_over_m, key)
            | Error _ -> None (* invalid parameters at this point *))
          managers
      in
      let best, key = List.fold_left min (Float.infinity, "-") candidates in
      line t "%6g %10.3f %10.3f %14s" c
        (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c)
        best key)
    cs

(* ------------------------------------------------------------------ *)
(* Ablations: how much each design choice of P_F contributes          *)

let ablation t =
  let m, n = if t.small then (1 lsl 15, 1 lsl 7) else (1 lsl 17, 1 lsl 9) in
  let spec ?ell ?stage1_steps ?maintain_density ~manager c =
    Spec.pf ?ell ?stage1_steps ?maintain_density ~c ~manager ~m ~n ()
  in
  let a1_ells =
    List.filter
      (fun ell -> Pc.Bounds.Cohen_petrank.h ~m ~n ~c:32.0 ~ell <> None)
      [ 1; 2 ]
  in
  let moving =
    List.filter_map
      (fun (e : Pc.Managers.entry) -> if e.moving then Some e.key else None)
      (Pc.Managers.entries ())
  in
  let specs =
    List.map (fun ell -> spec ~ell ~manager:"compacting" 32.0) a1_ells
    @ List.concat_map
        (fun c ->
          [
            spec ~manager:"compacting" c;
            spec ~maintain_density:false ~manager:"compacting" c;
            spec ~stage1_steps:0 ~manager:"compacting" c;
          ])
        [ 16.0; 32.0 ]
    @ List.map (fun key -> spec ~manager:key 16.0) moving
  in
  line t "=== Ablations (M=%d, n=%d) ===" m n;
  let find = sweep t "ablation" specs in
  let v s = hs_over_m (find s) in
  line t "";
  line t "=== Ablation A1: the density exponent l (c = 32) ===";
  line t "    (Theorem 1 optimises l; the empirical optimum should agree)";
  let best_ell =
    match Pc.Bounds.Cohen_petrank.best ~m ~n ~c:32.0 with
    | Some { ell; _ } -> ell
    | None -> 0
  in
  List.iter
    (fun ell ->
      match Pc.Bounds.Cohen_petrank.h ~m ~n ~c:32.0 ~ell with
      | Some h ->
          line t "    l=%d%s  theory h=%6.3f  measured HS/M=%6.3f" ell
            (if ell = best_ell then "*" else " ")
            (Float.max h 1.0)
            (v (spec ~ell ~manager:"compacting" 32.0))
      | None -> line t "    l=%d   (invalid at these parameters)" ell)
    [ 1; 2 ];
  line t "";
  line t "=== Ablation A2: stage 2 density maintenance (line 13) ===";
  List.iter
    (fun c ->
      line t "    c=%-3g  with density: %6.3f   without: %6.3f" c
        (v (spec ~manager:"compacting" c))
        (v (spec ~maintain_density:false ~manager:"compacting" c)))
    [ 16.0; 32.0 ];
  line t "";
  line t "=== Ablation A3: the Robson stage (stage 1) ===";
  List.iter
    (fun c ->
      line t "    c=%-3g  full stage 1: %6.3f   unit fill only: %6.3f" c
        (v (spec ~manager:"compacting" c))
        (v (spec ~stage1_steps:0 ~manager:"compacting" c)))
    [ 16.0; 32.0 ];
  line t "";
  line t "=== Ablation A4: which manager resists P_F best (c = 16) ===";
  line t "    (Theorem 1 floors them all; smaller HS/M = closer to the floor)";
  let floor16 = Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c:16.0 in
  line t "    theory floor h = %.3f" floor16;
  List.iter
    (fun key ->
      match find (spec ~manager:key 16.0) with
      | Ok o ->
          line t "    %-12s HS/M=%6.3f  moved=%-7d %s" key o.hs_over_m o.moved
            (if o.hs_over_m >= floor16 -. 0.02 then "(floor respected)"
             else "(BELOW FLOOR?)")
      | Error msg -> line t "    %-12s failed: %s" key msg)
    moving

(* ------------------------------------------------------------------ *)
(* Table S4: the literature zoo vs the paper's bounds                  *)

(* The four managers adapted from the related literature (meshing,
   compact-fit, cost-oblivious resizing, polylog reallocation), run
   against the same three workloads as the classics — PF at two cs,
   Robson's PR, and random churn — and reported next to the bounds
   that apply to each: the Theorem 1 floor and the Theorem 2 ceiling
   for PF, Robson's bound for PR, and none for churn, whose rows carry
   HS/live instead. Every point is also a row of --json's "zoo" list. *)

let zoo_managers =
  [ "meshing"; "compact-fit"; "cost-oblivious"; "polylog-realloc" ]

let record_zoo t ?c ?floor ?ceiling ?robson ?live_ratio ~workload ~manager ~m
    ~n (o : Pc.Runner.outcome) =
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  t.zoo <-
    Json.Obj
      [
        ("workload", Json.String workload);
        ("manager", Json.String manager);
        ("m", Json.Int m);
        ("n", Json.Int n);
        ("c", opt c);
        ("hs", Json.Int o.hs);
        ("hs_over_m", Json.Float o.hs_over_m);
        ("hs_over_live", opt live_ratio);
        ("moved", Json.Int o.moved);
        ("theorem1_floor", opt floor);
        ("theorem2_ceiling", opt ceiling);
        ("robson_bound", opt robson);
        ("compliant", Json.Bool o.compliant);
      ]
    :: t.zoo

let sim_zoo t =
  let m, n = if t.small then (1 lsl 14, 1 lsl 7) else (1 lsl 16, 1 lsl 8) in
  let cs = [ 8.0; 16.0 ] in
  let churn = if t.small then 5_000 else 20_000 in
  let churn_n = 1 lsl 6 in
  let pf_spec c manager = Spec.pf ~c ~manager ~m ~n () in
  let robson_spec manager = Spec.robson ~c:8.0 ~manager ~m ~n () in
  let churn_spec manager =
    Spec.random_churn ~seed:7 ~churn ~c:8.0 ~manager ~m
      ~dist:(Pc.Random_workload.Pow2 { lo_log = 0; hi_log = 6 })
      ~target_live:(m / 2) ()
  in
  line t "=== Table S4: literature zoo vs the paper's bounds (M=%d, n=%d) ==="
    m n;
  line t
    "    (meshing / compact-fit / cost-oblivious / polylog-realloc; Theorem \
     1 floors every c-partial manager, Theorem 2 caps what compaction must \
     achieve)";
  let find =
    sweep t "sim-zoo"
      (List.concat_map (fun c -> List.map (pf_spec c) zoo_managers) cs
      @ List.map robson_spec zoo_managers
      @ List.map churn_spec zoo_managers)
  in
  line t "";
  line t "    PF adversary: HS/M per manager";
  line t "%6s %8s %8s | %8s %12s %15s %16s" "c" "floor" "T2 cap" "meshing"
    "compact-fit" "cost-oblivious" "polylog-realloc";
  List.iter
    (fun c ->
      let floor = Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c in
      let ceiling =
        if Pc.Bounds.Theorem2.applicable ~n ~c then
          Some (Pc.Bounds.Theorem2.waste_factor ~m ~n ~c)
        else None
      in
      let v manager =
        match find (pf_spec c manager) with
        | Ok o ->
            record_zoo t ~workload:"pf" ~manager ~m ~n ~c ~floor ?ceiling o;
            o.hs_over_m
        | Error _ -> Float.nan
      in
      let meshing = v "meshing" in
      let compact_fit = v "compact-fit" in
      let cost_oblivious = v "cost-oblivious" in
      let polylog = v "polylog-realloc" in
      line t "%6.0f %8.3f %8s | %8.3f %12.3f %15.3f %16.3f" c floor
        (match ceiling with Some u -> Fmt.str "%.1f" u | None -> "-")
        meshing compact_fit cost_oblivious polylog)
    cs;
  line t "";
  line t "    PR adversary (Robson, c = 8): HS/M per manager";
  let robson_bound = Pc.Bounds.Robson.waste_factor_pow2 ~m ~n in
  line t "    (Robson's matching bound for non-moving managers: %.3f)"
    robson_bound;
  List.iter
    (fun manager ->
      match find (robson_spec manager) with
      | Ok o ->
          record_zoo t ~workload:"robson" ~manager ~m ~n ~c:8.0
            ~robson:robson_bound o;
          line t "    %-16s HS/M=%6.3f  moved=%d" manager o.hs_over_m o.moved
      | Error msg -> line t "    %-16s failed: %s" manager msg)
    zoo_managers;
  line t "";
  line t "    random churn (seed 7, c = 8, sizes <= %d): HS/M per manager"
    churn_n;
  line t "    (adversarial floor h = %.3f — average case sits below it)"
    (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n:churn_n ~c:8.0);
  List.iter
    (fun manager ->
      match find (churn_spec manager) with
      | Ok o ->
          record_zoo t ~workload:"churn" ~manager ~m ~n:churn_n ~c:8.0
            ~live_ratio:(hs_over_live o) o;
          line t "    %-16s HS/M=%6.3f  HS/live=%6.3f  moved=%d" manager
            o.hs_over_m (hs_over_live o) o.moved
      | Error msg -> line t "    %-16s failed: %s" manager msg)
    zoo_managers

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("sim-lower", sim_lower);
    ("sim-upper", sim_upper);
    ("sim-average", sim_average);
    ("sim-fig1", sim_fig1);
    ("ablation", ablation);
    ("sim-zoo", sim_zoo);
  ]

let names = List.map fst experiments

(* Runs the [selected] experiments (all of them when empty) in the
   order above and returns the exit code: 3 if an oracle violation was
   triaged, 1 if injected faults left a point unrecovered, else 0.
   Under [json] the tables are not printed; one document with every
   sweep's summary and the zoo rows goes to stdout instead. *)
let run ~sweep ~small ~json selected =
  let out =
    if json then Format.make_formatter (fun _ _ _ -> ()) ignore
    else Format.std_formatter
  in
  let t = { sweep; small; out; summaries = []; zoo = [] } in
  List.iter
    (fun (name, f) -> if selected = [] || List.mem name selected then f t)
    experiments;
  if json then
    Fmt.pr "%s@."
      (Json.to_string
         (Json.Obj
            [
              ( "sweeps",
                Json.List
                  (List.rev_map
                     (fun (name, s) ->
                       Json.Obj
                         (("name", Json.String name) :: summary_fields s))
                     t.summaries) );
              ("zoo", Json.List (List.rev t.zoo));
            ]));
  let any p = List.exists (fun (_, s) -> p s) t.summaries in
  if any (fun s -> s.Engine.violations > 0) then begin
    line t "";
    line t "FAIL: oracle violations were triaged (bundle paths in the \
            summaries above)";
    Pc.Audit.Report.exit_violation
  end
  else if sweep.faults <> None && any (fun s -> s.Engine.failed > 0) then begin
    line t "";
    line t "FAIL: injected faults left unrecovered failures (see summaries)";
    1
  end
  else Pc.Audit.Report.exit_ok
