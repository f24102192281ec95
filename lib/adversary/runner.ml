open Pc_heap
open Pc_manager

(* Executes a (program, manager) interaction and reports HS(A, P) and
   the rest of the paper's accounting. *)

let src = Logs.Src.create "pc.runner" ~doc:"program/manager executions"

module Log = (val Logs.src_log src : Logs.LOG)

(* Telemetry: where executions spend their time (primary run vs triage
   re-run), how the waste factor came out against the audited theory
   floor, and — at the [Full] level — the HS/M trajectory over the
   run, bucketed as permille so Theorem 1's floor is readable straight
   off the histogram. Span aggregates are shared across sweep worker
   domains; per-domain interleavings can drop an update, which is
   acceptable for timing aggregates and never affects outcomes. *)
module T = Pc_telemetry

let exec_span = T.Registry.span "runner.exec"
let triage_span = T.Registry.span "runner.triage"
let executions_c = T.Registry.counter "runner.executions"
let violations_c = T.Registry.counter "runner.violations"
let hs_over_m_g = T.Registry.gauge "runner.hs_over_m"
let theory_floor_g = T.Registry.gauge "runner.theory_floor"
let fragmentation_g = T.Registry.gauge "runner.external_fragmentation"
let trajectory_h = T.Registry.histogram "runner.hs_over_m_permille"
let trajectory_every = 64

type outcome = {
  program : string;
  manager : string;
  m : int;
  n : int;
  c : float option;
  hs : int; (* HS(A, P): high-water mark in words *)
  hs_over_m : float;
  allocated : int;
  moved : int;
  freed : int;
  final_live : int;
  compliant : bool; (* c-partial rule never violated *)
}

let run ?c ?(audit = Pc_audit.Oracle.Off) ?audit_c ?theory_h ?failures_dir
    ~program ~manager () =
  let m = Program.live_bound program in
  (* The oracle audits [audit_c] — normally the enforced bound, but a
     caller can audit a bound the budget does not enforce (that is how
     the CI drill models a manager whose budget debit is broken). *)
  let audit_c = match audit_c with Some _ as ac -> ac | None -> c in
  (* One execution of the interaction. Programs build their state
     inside their run closure, so executions are deterministic and
     repeatable; [record] controls whether the heap's event stream is
     captured as a trace. The primary run does not record — retaining
     every event costs real time and memory on clean runs — and on a
     violation the run is repeated with the recorder on to obtain the
     trace for triage. *)
  let exec ~record =
    let budget =
      match c with Some c -> Budget.create ~c | None -> Budget.unlimited ()
    in
    let ctx = Ctx.create ~budget ~live_bound:m () in
    let heap = Ctx.heap ctx in
    T.Counter.incr executions_c;
    (* Full level only: sample the HS/M trajectory as the run unfolds.
       The listener merely observes, so attaching it cannot change the
       interaction — level [full] stays bit-identical to [off]. *)
    if !T.Sink.full_active then begin
      let countdown = ref trajectory_every in
      Heap.on_event heap (fun _ ->
          decr countdown;
          if !countdown <= 0 then begin
            countdown := trajectory_every;
            T.Histogram.observe trajectory_h (Heap.high_water heap * 1000 / m)
          end)
    end;
    (* Listener order matters: Heap.on_event fires most-recently-added
       first, and the kernel checks the budget only after every
       listener has seen a move. Attaching the oracle before the trace
       recorder means the recorder runs first on every event — the
       violating event is already recorded when the oracle raises. *)
    let oracle =
      if audit = Pc_audit.Oracle.Off then None
      else
        Some (Pc_audit.Oracle.attach ~level:audit ?c:audit_c ~live_bound:m heap)
    in
    let trace =
      if record then begin
        let t = Trace.create () in
        Trace.record t heap;
        Some t
      end
      else None
    in
    let driver = Driver.create ctx manager in
    let event_seq () =
      match oracle with Some o -> Pc_audit.Oracle.seq o | None -> -1
    in
    let result =
      try
        Program.run program driver;
        (match oracle with
        | Some oracle -> Pc_audit.Oracle.finish ?theory_h oracle
        | None -> ());
        Ok ()
      with
      | Pc_audit.Oracle.Violation v -> Error v
      | Budget.Exceeded { requested; available }
        when audit <> Pc_audit.Oracle.Off ->
          (* The budget's own enforcement tripping under audit means
             the oracle's (identical) bound was not the binding one —
             e.g. the enforced c is tighter than the audited c.
             Triaged the same way. *)
          Error
            {
              Pc_audit.Oracle.oracle = "budget";
              seq = event_seq ();
              detail =
                Printf.sprintf
                  "Budget.Exceeded: move of %d words, %d available" requested
                  available;
            }
      | Pf.Audit_failure { step; delta_u; floor }
        when audit <> Pc_audit.Oracle.Off ->
          (* PF's own Claim 4.16 potential audit, surfaced as a triaged
             (unshrinkable: adversary-internal) violation. *)
          Error
            {
              Pc_audit.Oracle.oracle = "pf-potential";
              seq = event_seq ();
              detail =
                Printf.sprintf
                  "Claim 4.16 violated at stage-2 step %d: potential grew by \
                   %d < floor %d"
                  step delta_u floor;
            }
    in
    (heap, trace, result)
  in
  Log.debug (fun k ->
      k "running %s vs %s (M=%d, c=%s, audit=%a)" (Program.name program)
        (Manager.name manager) m
        (match c with Some c -> Fmt.str "%g" c | None -> "unlimited")
        Pc_audit.Oracle.pp_level audit);
  let heap, _, result =
    T.Span.time exec_span (fun () -> exec ~record:false)
  in
  (match result with
  | Ok () -> ()
  | Error v -> (
      T.Counter.incr violations_c;
      let info =
        {
          Pc_audit.Report.program = Program.name program;
          manager = Manager.name manager;
          m;
          n = Program.max_size program;
          c = audit_c;
          theory_h;
        }
      in
      (* Triage: repeat the execution with the recorder on, then
         delta-debug the captured trace and emit a repro bundle
         (raising Report.Reported). If the repeat does not reproduce
         the violation — a nondeterministic program — the violation
         propagates as-is, without a bundle. *)
      match T.Span.time triage_span (fun () -> exec ~record:true) with
      | _, Some trace, Error v' when v'.Pc_audit.Oracle.oracle = v.oracle ->
          Pc_audit.Report.capture ?dir:failures_dir ~info ~violation:v ~trace
            ()
      | _ -> raise (Pc_audit.Oracle.Violation v)));
  Heap.check_invariants heap;
  if !T.Sink.active then begin
    T.Gauge.set hs_over_m_g
      (float_of_int (Heap.high_water heap) /. float_of_int m);
    (match theory_h with
    | Some floor -> T.Gauge.set theory_floor_g floor
    | None -> ());
    T.Gauge.set fragmentation_g
      (Metrics.external_fragmentation (Metrics.snapshot heap))
  end;
  Log.info (fun k ->
      k "%s vs %s: HS=%d (%.3f x M), moved %d of %d allocated"
        (Program.name program) (Manager.name manager) (Heap.high_water heap)
        (float_of_int (Heap.high_water heap) /. float_of_int m)
        (Heap.moved_total heap)
        (Heap.allocated_total heap));
  {
    program = Program.name program;
    manager = Manager.name manager;
    m;
    n = Program.max_size program;
    c;
    hs = Heap.high_water heap;
    hs_over_m = float_of_int (Heap.high_water heap) /. float_of_int m;
    allocated = Heap.allocated_total heap;
    moved = Heap.moved_total heap;
    freed = Heap.freed_total heap;
    final_live = Heap.live_words heap;
    compliant = Heap.available heap >= 0;
  }

let pp_outcome ppf o =
  Fmt.pf ppf
    "%-16s vs %-12s M=%-8d n=%-6d c=%-6s HS=%-9d HS/M=%.3f moved=%d%s"
    o.program o.manager o.m o.n
    (match o.c with Some c -> Fmt.str "%g" c | None -> "-")
    o.hs o.hs_over_m o.moved
    (if o.compliant then "" else "  [BUDGET VIOLATED]")
