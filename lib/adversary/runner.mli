(** Executes a (program, manager) interaction and reports [HS(A, P)]
    together with the rest of the paper's accounting. *)

type outcome = {
  program : string;
  manager : string;
  m : int;
  n : int;
  c : float option;
  hs : int;  (** the heap size [HS(A, P)]: high-water mark in words *)
  hs_over_m : float;
  allocated : int;
  moved : int;
  freed : int;
  final_live : int;
  compliant : bool;  (** the c-partial rule was never violated *)
}

val run :
  ?c:float ->
  ?audit:Pc_audit.Oracle.level ->
  ?audit_c:float ->
  ?theory_h:float ->
  ?failures_dir:string ->
  program:Program.t ->
  manager:Pc_manager.Manager.t ->
  unit ->
  outcome
(** [c] bounds the manager's compaction (omit for unlimited). A full
    heap invariant check runs once at the end of every execution; for
    sampled checks during the run, audit at [Sampled] or above.

    [audit] (default [Off]) attaches the {!Pc_audit.Oracle} layer to
    the run: the heap's event stream is checked (budget, live-space,
    structural, and — at [Differential] — the kernel-vs-reference
    watchdog; the structural sweep runs at least 64 events apart).
    On any violation — including {!Pc_heap.Budget.Exceeded} and PF's
    {!Pf.Audit_failure} — the
    deterministic execution is repeated with a {!Pc_heap.Trace}
    recorder attached (clean runs pay no recording cost), the captured
    trace is delta-debugged, and an atomic repro bundle is emitted
    under [failures_dir] (default {!Pc_audit.Report.default_dir}); the
    run raises {!Pc_audit.Report.Reported}. [audit_c] audits a compaction bound
    different from the enforced one (test hook: an unlimited budget
    plus [audit_c] models a manager whose budget debit is broken);
    it defaults to [c]. [theory_h] additionally asserts Theorem 1's
    floor [HS/M >= theory_h] on the final heap. *)

val run_recorded :
  ?c:float ->
  program:Program.t ->
  manager:Pc_manager.Manager.t ->
  unit ->
  outcome * Pc_heap.Trace.t
(** {!run} without audit, returning the trace of the heap's event
    stream recorded on the same execution the outcome reports, so the
    trace's totals are the outcome's. *)

val pp_outcome : Format.formatter -> outcome -> unit
