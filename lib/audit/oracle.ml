open Pc_heap

(* Composable runtime oracles over a live heap.

   An oracle subscribes to the heap's event stream and re-derives, from
   the heap's own observable state, the properties the rest of the
   system is supposed to maintain: structural consistency, the
   c-partial budget rule, the live-space bound, and (at the end of a PF
   run) the Theorem 1 floor. The point is independence — the oracle
   shares no accounting with the heap's ledger or the managers, so a
   bug that skips a debit on one side still trips the other.

   Cost model: the budget and live-space checks are O(1), driven by
   counters tracked incrementally from the event stream, and run on
   exactly the events able to violate them (moves and allocations
   respectively) at every level; the sampled sweep cross-checks those
   counters against the heap's own accounting. The structural sweep is O(live),
   so at [Sampled] and [Differential] it is sampled: at least
   [sample_every] events apart, stretched adaptively so the amortized
   sweep cost stays a bounded fraction of execution ([sample_every =
   1] disables the stretching and checks every event — replay-based
   reproduction relies on that). [Full] runs the sweep on every event.
   [Differential] additionally maintains a shadow [Heap_ref] (the
   persistent reference), applies every event to it, and compares the
   observable aggregates after each event — the watchdog fails at the
   first diverging event, not at end-of-run. The shadow feeds no
   telemetry, so the kernel's counters read the same as at [Off]. *)

type level = Off | Sampled | Full | Differential

let level_to_string = function
  | Off -> "off"
  | Sampled -> "sampled"
  | Full -> "full"
  | Differential -> "differential"

let level_of_string = function
  | "off" -> Ok Off
  | "sampled" -> Ok Sampled
  | "full" -> Ok Full
  | "differential" | "diff" -> Ok Differential
  | s ->
      Error
        (`Msg
           (Fmt.str "unknown audit level %S (expected off, sampled, full or \
                     differential)" s))

let pp_level ppf l = Fmt.string ppf (level_to_string l)

type violation = { oracle : string; seq : int; detail : string }

exception Violation of violation

let pp_violation ppf v =
  Fmt.pf ppf "[%s] event %d: %s" v.oracle v.seq v.detail

(* Shrinking a violating trace only makes sense for oracles whose
   verdict is a function of the event prefix: budget, live-space,
   structure and divergence all re-trip under replay of a sub-trace.
   The theory oracle judges the *final* heap of the complete adversary
   schedule — any sub-trace trivially "violates" it — and the PF
   potential audit depends on adversary-internal state a trace does
   not carry, so those ship unshrunk. *)
let shrinkable = function
  | "budget" | "live-bound" | "structure" | "divergence" -> true
  | _ -> false

type t = {
  heap : Heap.t;
  level : level;
  sample_every : int;
  c : float option;
  live_bound : int option;
  only : string option;
  shadow : Heap_ref.t option;
  budget_on : bool; (* precomputed [enabled t "budget"] && c present *)
  live_on : bool; (* precomputed [enabled t "live-bound"] && bound present *)
  mutable seq : int; (* events seen so far *)
  mutable countdown : int; (* events until the next sampled sweep *)
  (* Cumulative accounting tracked incrementally from the event stream
     itself — independent of the heap's own counters, the ledger the
     kernel enforces the budget over (the sampled sweep cross-checks
     them). *)
  mutable allocated : int;
  mutable moved : int;
  mutable live : int;
}

let seq t = t.seq
let level t = t.level
let enabled t name = match t.only with None -> true | Some o -> String.equal o name
let fail t ~oracle fmt =
  Fmt.kstr (fun detail -> raise (Violation { oracle; seq = t.seq; detail })) fmt

(* The c-partial rule, re-derived from the event stream with
   Budget.quota's exact rounding: at every instant
   moved <= floor(allocated / c). *)
let check_budget t =
  match t.c with
  | Some c when t.budget_on ->
      let quota = int_of_float (float_of_int t.allocated /. c) in
      if t.moved > quota then
        fail t ~oracle:"budget"
          "c-partial rule violated: moved %d > quota %d = floor(allocated %d \
           / c=%g)"
          t.moved quota t.allocated c
  | Some _ | None -> ()

let check_live t =
  match t.live_bound with
  | Some m when t.live_on ->
      if t.live > m then
        fail t ~oracle:"live-bound" "live-space bound violated: live %d > M=%d"
          t.live m
  | Some _ | None -> ()

(* The incremental counters must agree with the heap's own accounting
   whenever compared — a mismatch means the heap's counters and its
   event stream have drifted apart, which is a structural bug. *)
let check_counters t =
  if enabled t "structure" then begin
    let cmp what stream heap_total =
      if stream <> heap_total then
        fail t ~oracle:"structure"
          "event-stream %s=%d disagrees with heap accounting %s=%d" what
          stream what heap_total
    in
    cmp "allocated" t.allocated (Heap.allocated_total t.heap);
    cmp "moved" t.moved (Heap.moved_total t.heap);
    cmp "live" t.live (Heap.live_words t.heap)
  end

(* The heap's own O(live) consistency sweep, converted from [Failure]
   into a first-class violation. *)
let check_structure t check_invariants heap =
  if enabled t "structure" then
    match check_invariants heap with
    | () -> ()
    | exception Failure msg -> fail t ~oracle:"structure" "%s" msg

(* --- the divergence watchdog ------------------------------------- *)

let diverged t ~what ~primary ~shadow =
  fail t ~oracle:"divergence" "%s diverged: kernel=%d, reference=%d" what
    primary shadow

(* O(1)-ish aggregate comparison after every mirrored event. *)
let compare_aggregates t shadow =
  let cmp what f g =
    let p = f t.heap and s = g shadow in
    if p <> s then diverged t ~what ~primary:p ~shadow:s
  in
  cmp "high_water" Heap.high_water Heap_ref.high_water;
  cmp "live_words" Heap.live_words Heap_ref.live_words;
  cmp "live_objects" Heap.live_objects Heap_ref.live_objects;
  cmp "allocated_total" Heap.allocated_total Heap_ref.allocated_total;
  cmp "moved_total" Heap.moved_total Heap_ref.moved_total;
  cmp "freed_total" Heap.freed_total Heap_ref.freed_total

(* Deep (sampled) comparison: the free-space index views must agree on
   the frontier, gap population and the largest gap, and the occupied
   word count below the frontier must match. *)
let compare_deep t shadow =
  let pf = Heap.free_index t.heap and sf = Heap_ref.free_index shadow in
  let cmp what f g =
    let p = f pf and s = g sf in
    if p <> s then diverged t ~what ~primary:p ~shadow:s
  in
  cmp "free_index.frontier" Free_index.frontier Free_index_ref.frontier;
  cmp "free_index.gap_count" Free_index.gap_count Free_index_ref.gap_count;
  cmp "free_index.free_below_frontier" Free_index.free_below_frontier
    Free_index_ref.free_below_frontier;
  cmp "free_index.largest_gap" Free_index.largest_gap
    Free_index_ref.largest_gap;
  let hw = Heap.high_water t.heap in
  let p = Heap.occupied_words_in t.heap ~start:0 ~stop:hw
  and s = Heap_ref.occupied_words_in shadow ~start:0 ~stop:hw in
  if p <> s then diverged t ~what:"occupied_words_in[0,hw)" ~primary:p ~shadow:s

let apply_shadow t shadow event =
  let reject what msg =
    fail t ~oracle:"divergence" "reference shadow rejects %s: %s" what msg
  in
  match event with
  | Heap.Alloc o -> (
      match Heap_ref.alloc shadow ~addr:o.addr ~size:o.size with
      | oid ->
          if not (Oid.equal oid o.oid) then
            diverged t ~what:"alloc oid" ~primary:(Oid.to_int o.oid)
              ~shadow:(Oid.to_int oid)
      | exception Invalid_argument msg -> reject "alloc" msg)
  | Heap.Free o -> (
      match Heap_ref.free shadow o.oid with
      | () -> ()
      | exception Invalid_argument msg -> reject "free" msg)
  | Heap.Move m -> (
      match Heap_ref.move shadow m.oid ~dst:m.dst with
      | () -> ()
      | exception Invalid_argument msg -> reject "move" msg)

(* --- wiring ------------------------------------------------------- *)

let on_event t event =
  t.seq <- t.seq + 1;
  (* The budget rule can only newly trip when [moved] grows and the
     live bound when [live] grows, so each check runs exactly on the
     events able to violate it — the every-event cost is a couple of
     int updates, no heap reads. *)
  (match event with
  | Heap.Alloc o ->
      t.allocated <- t.allocated + o.size;
      t.live <- t.live + o.size;
      check_live t
  | Heap.Free o -> t.live <- t.live - o.size
  | Heap.Move m ->
      t.moved <- t.moved + m.size;
      check_budget t);
  (match t.shadow with
  | Some shadow when enabled t "divergence" ->
      apply_shadow t shadow event;
      compare_aggregates t shadow
  | Some _ | None -> ());
  match t.level with
  | Off -> ()
  | Full ->
      check_counters t;
      check_structure t Heap.check_invariants t.heap
  | Sampled | Differential ->
      t.countdown <- t.countdown - 1;
      if t.countdown <= 0 then begin
        (* The sweep below visits every live object; spreading its cost
           over ~20x as many events keeps the amortized overhead to a
           few percent regardless of heap size. [sample_every = 1]
           means strictly every event. *)
        t.countdown <-
          (if t.sample_every = 1 then 1
           else max t.sample_every (20 * (1 + Heap.live_objects t.heap)));
        check_counters t;
        check_structure t Heap.check_invariants t.heap;
        match t.shadow with
        | Some shadow when enabled t "divergence" ->
            check_structure t Heap_ref.check_invariants shadow;
            compare_deep t shadow
        | Some _ | None -> ()
      end

let attach ?(level = Sampled) ?(sample_every = 64) ?c ?live_bound ?only heap =
  if sample_every <= 0 then
    invalid_arg "Oracle.attach: sample_every must be > 0";
  (match c with
  | Some c when c <= 1.0 -> invalid_arg "Oracle.attach: need c > 1"
  | Some _ | None -> ());
  let shadow =
    match level with
    | Differential -> Some (Heap_ref.create ())
    | Off | Sampled | Full -> None
  in
  let enabled_at name =
    match only with None -> true | Some o -> String.equal o name
  in
  let t =
    {
      heap;
      level;
      sample_every;
      c;
      live_bound;
      only;
      shadow;
      budget_on = c <> None && enabled_at "budget";
      live_on = live_bound <> None && enabled_at "live-bound";
      seq = 0;
      countdown = sample_every;
      (* A heap attached mid-life starts from its current accounting. *)
      allocated = Heap.allocated_total heap;
      moved = Heap.moved_total heap;
      live = Heap.live_words heap;
    }
  in
  if level <> Off then Heap.on_event heap (on_event t);
  t

(* End-of-run checks: one last full sweep (catching drift the sampling
   window missed), a final deep shadow comparison, and — when the
   caller supplies the Theorem 1 prediction — the theory oracle:
   final HS/M must be at least h(c, n, M, optimal l) - eps. Meaningful
   floors (h > 1) are asserted; below that the theorem is vacuous. *)
(* [eps] tolerates the gap between the asymptotic Theorem 1 statement
   and finite simulation scales: the ablation table (A4) observes
   borderline managers up to ~0.02 below the floor at toy M. The
   default catches what a genuine bug produces (HS/M collapsing
   towards 1) without flagging finite-size noise; tests pin it
   tighter. *)
let finish ?theory_h ?(eps = 0.05) t =
  if t.level <> Off then begin
    check_budget t;
    check_live t;
    check_counters t;
    check_structure t Heap.check_invariants t.heap;
    (match t.shadow with
    | Some shadow when enabled t "divergence" ->
        compare_aggregates t shadow;
        check_structure t Heap_ref.check_invariants shadow;
        compare_deep t shadow
    | Some _ | None -> ());
    match (theory_h, t.live_bound) with
    | Some h, Some m when enabled t "theory" && h > 1.0 ->
        let hs_over_m = float_of_int (Heap.high_water t.heap) /. float_of_int m in
        if hs_over_m +. eps < h then
          fail t ~oracle:"theory"
            "Theorem 1 violated: final HS/M = %.6f < h = %.6f (HS=%d, M=%d)"
            hs_over_m h (Heap.high_water t.heap) m
    | _ -> ()
  end
