(** Composable runtime oracles over a live heap.

    An oracle subscribes to the heap's event stream and re-derives,
    from the heap's own observable state, the properties the rest of
    the system is supposed to maintain — independently of the heap's
    ledger and the managers' accounting, so a bug that skips a debit
    on one side still trips the other.

    Oracles, by name (the name keys {!violation.oracle}, the [only]
    filter and the repro-bundle replay):
    - ["budget"]: the c-partial rule [moved <= floor(allocated / c)]
      at every instant (O(1), every event);
    - ["live-bound"]: [live <= M] at every instant (O(1), every
      event);
    - ["structure"]: the heap's full O(live) consistency sweep —
      sampled at [Sampled] and [Differential] (at least [sample_every]
      events apart, stretched so the amortized cost stays a few
      percent of execution), every event at [Full], and always once at
      {!finish};
    - ["divergence"] ([Differential] only): a shadow heap on the
      persistent reference substrate mirrors every event; the
      watchdog fails at the {e first} event where the kernel and the
      reference disagree (alloc oid, HS, live/moved/freed aggregates
      each event; free-index frontier, gap population, largest gap
      and occupied-word counts at sampled events and at {!finish});
    - ["theory"] (at {!finish}, when [theory_h] is supplied): final
      [HS/M >= h - eps] — Theorem 1's floor on a PF run. *)

type level = Off | Sampled | Full | Differential

val level_of_string : string -> (level, [ `Msg of string ]) result
(** Accepts "off", "sampled", "full", "differential"/"diff". *)

val pp_level : Format.formatter -> level -> unit

type violation = {
  oracle : string;  (** which oracle tripped (names above) *)
  seq : int;  (** 1-based index of the heap event that tripped it *)
  detail : string;
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

val shrinkable : string -> bool
(** Whether a violating trace of this oracle can be delta-debugged:
    true for the per-event oracles (["budget"], ["live-bound"],
    ["structure"], ["divergence"]) whose verdict re-trips under
    sub-trace replay, false for end-of-run judgements (["theory"]) and
    adversary-internal audits (["pf-potential"]) that a bare heap
    trace cannot re-establish. *)

type t

val attach :
  ?level:level ->
  ?sample_every:int ->
  ?c:float ->
  ?live_bound:int ->
  ?only:string ->
  Pc_heap.Heap.t ->
  t
(** Subscribe the oracles to [heap]'s event stream. The heap must be
    fresh (no events yet) — the [Differential] shadow mirrors the
    stream from the beginning. [level] defaults to [Sampled] (at [Off]
    nothing is attached and {!finish} is a no-op); [sample_every]
    (default 64) is the {e minimum} structural-sweep spacing — the
    actual spacing stretches with the live-object count so the O(live)
    sweep stays amortized-cheap, except at [sample_every = 1], which
    pins the sweep to strictly every event (replay-based reproduction
    relies on that); [c] enables
    the budget oracle; [live_bound] enables the live-space oracle (and
    the theory oracle at {!finish}); [only] restricts checking to the
    named oracle — replay uses it to reproduce exactly the recorded
    violation kind. Raises [Invalid_argument] on [sample_every <= 0]
    or [c <= 1]. *)

val finish : ?theory_h:float -> t -> unit
(** End-of-run checks: a final full sweep of every attached oracle,
    the final deep shadow comparison at [Differential], and — given
    [theory_h] — the Theorem 1 floor [HS/M >= theory_h - 0.05] (only
    asserted when [theory_h > 1]; [0.05] is the finite-scale
    tolerance — the theorem is asymptotic and borderline
    managers run up to ~0.02 below the floor at toy [M]). Raises
    {!Violation}. *)

val seq : t -> int
(** Heap events observed so far. *)

val level : t -> level
