open Pc_heap

(* Shared chunk-eviction machinery for compacting managers.

   To reuse an occupied region, a manager must relocate every live
   object intersecting it, paying the objects' sizes out of the
   compaction budget. This is exactly the reuse the paper's program PF
   is engineered to make expensive: PF keeps every chunk at density
   >= 2^-l > 1/c, so each reuse costs more budget than the triggering
   allocation recharges.

   Candidate windows are derived from the largest free gaps rather
   than from a scan of all live objects: a window that is cheap to
   clear is mostly free, so it overlaps one of the big gaps. This
   keeps each scan at O(gaps_scanned * log live) instead of O(live), and
   the scan is kept in an [Evict.t], one per execution, and reused until
   the free index's epoch moves (see [candidates_capped]). *)

let src = Logs.Src.create "pc.evict" ~doc:"window eviction decisions"

module Log = (val Logs.src_log src : Logs.LOG)

type candidate = { window_start : int; cost : int }

(* The last window scan, valid while the free index's epoch, the
   window size and the alignment are the ones it was made for, and the
   generation-stamped dedup scratch it was made with: a slot is marked
   iff it holds the current generation, so clearing between scans is a
   single counter bump. *)
type t = {
  mutable epoch : int; (* -1 until the first scan *)
  mutable size : int;
  mutable align : int;
  mutable costed : candidate list; (* below the frontier, by (cost, start) *)
  mutable pending : int list; (* starts not yet below the frontier, ascending *)
  mutable seen : int array;
  mutable gen : int;
}

let create () =
  {
    epoch = -1;
    size = 0;
    align = 0;
    costed = [];
    pending = [];
    seen = [||];
    gen = 0;
  }

(* Telemetry: how much window-scanning the compacting managers do and
   how often it pays off. The window-cost distribution is only
   sampled at the [Full] level. *)
module T = Pc_telemetry

let candidates_c = T.Registry.counter "evict.candidates_scanned"
let scan_hits_c = T.Registry.counter "evict.scan_cache_hits"
let attempts_c = T.Registry.counter "evict.attempts"
let cleared_c = T.Registry.counter "evict.windows_cleared"
let evicted_words_c = T.Registry.counter "evict.evicted_words"
let window_cost_h = T.Registry.histogram "evict.window_cost"

(* Why [try_evict] returned [None]: exactly one per declined call. *)
let declined_no_candidate_c = T.Registry.counter "evict.declined_no_candidate"
let declined_relocation_c = T.Registry.counter "evict.declined_relocation"
let declined_budget_c = T.Registry.counter "evict.declined_budget"
let declined_attempts_c = T.Registry.counter "evict.declined_attempts"

(* Cost of clearing the aligned [size]-word window at [start]: total
   size of the live objects intersecting it (straddlers count fully —
   they must be moved whole). *)
let window_cost heap ~start ~size =
  Heap.clear_cost heap ~start ~stop:(start + size) ~cap:max_int

let gaps_scanned = 64

let by_cost_start a b =
  match Int.compare a.cost b.cost with
  | 0 -> Int.compare a.window_start b.window_start
  | c -> c

let cost_window heap ~size start =
  let cost = window_cost heap ~start ~size in
  if !T.Sink.active then begin
    T.Counter.incr candidates_c;
    if !T.Sink.full_active then T.Histogram.observe window_cost_h cost
  end;
  { window_start = start; cost }

(* Scan the [align]-aligned windows around the [gaps_scanned] largest
   gaps afresh: cost the ones wholly below the frontier, and keep the
   others (near the frontier) pending. *)
let rescan ws ctx ~size ~align =
  let heap = Ctx.heap ctx in
  let free = Ctx.free_index ctx in
  let frontier = Free_index.frontier free in
  let below = ref [] and pending = ref [] in
  (* The same few windows surface from many gaps; an O(1)
     generation-stamped dedup beats rescanning the candidate list on
     every hit. *)
  let gen = ws.gen + 1 in
  ws.gen <- gen;
  let need = (frontier / align) + 2 in
  if Array.length ws.seen < need then ws.seen <- Array.make (max need 1024) 0;
  let seen = ws.seen in
  let consider w =
    if w >= 0 && Array.unsafe_get seen w <> gen then begin
      Array.unsafe_set seen w gen;
      let start = w * align in
      if start + size <= frontier then
        below := cost_window heap ~size start :: !below
      else pending := start :: !pending
    end
  in
  (* Two divisions per inspected gap add up; managers align windows to
     powers of two, so shift instead when possible. *)
  let ashift =
    if align > 0 && align land (align - 1) = 0 then begin
      let s = ref 0 in
      while 1 lsl !s < align do
        incr s
      done;
      !s
    end
    else -1
  in
  let wof = if ashift >= 0 then fun a -> a lsr ashift else fun a -> a / align in
  Free_index.iter_largest_gaps free ~k:gaps_scanned (fun gs gl ->
      (* Windows overlapping this gap; a bounded number per gap. *)
      let w0 = wof gs and w1 = wof (gs + gl - 1) in
      let wlimit = min w1 (w0 + 3) in
      for w = w0 to wlimit do
        consider w
      done;
      if w1 > wlimit then consider w1);
  ws.epoch <- Free_index.epoch free;
  ws.size <- size;
  ws.align <- align;
  ws.costed <- List.sort by_cost_start !below;
  ws.pending <- List.sort Int.compare !pending

(* Same epoch: the frontier can only have grown. Cost the pending
   windows it has passed and merge them in. *)
let admit ws ctx =
  let frontier = Free_index.frontier (Ctx.free_index ctx) in
  match ws.pending with
  | s :: _ when s + ws.size <= frontier ->
      let fresh, rest =
        List.partition (fun s -> s + ws.size <= frontier) ws.pending
      in
      ws.pending <- rest;
      ws.costed <-
        List.merge by_cost_start
          (List.map (cost_window (Ctx.heap ctx) ~size:ws.size) fresh
          |> List.sort by_cost_start)
          ws.costed
  | _ -> ()

let rec within_cap cap = function
  | c :: rest when c.cost <= cap -> c :: within_cap cap rest
  | _ -> []

(* Candidate [align]-aligned [size]-word windows below the frontier
   costing at most [cost_cap], cheapest first (ties: lowest start),
   discovered around the [gaps_scanned] largest gaps.

   This runs on every heap-growing allocation of the compacting
   managers, while the gaps seldom change between two of them. So the
   scan is kept in [ws] under the free index's epoch: within one
   epoch the only mutation is tail growth, which leaves the gap set,
   hence the window set, alone and touches no word below the old
   frontier, so every window already costed keeps its cost; a window
   the frontier newly passes is costed when it is admitted. The kept
   list is sorted by (cost, start), a total order, so the cap filter is
   a prefix and the result equals a fresh scan's, filtered then
   sorted. *)
let candidates_capped ~cost_cap ws ctx ~size ~align =
  if
    ws.epoch = Free_index.epoch (Ctx.free_index ctx)
    && ws.size = size && ws.align = align
  then begin
    T.Counter.incr scan_hits_c;
    admit ws ctx
  end
  else rescan ws ctx ~size ~align;
  within_cap cost_cap ws.costed

let window_candidates ws ctx ~size ~align =
  candidates_capped ~cost_cap:max_int ws ctx ~size ~align

(* Default relocation target: lowest-addressed existing gap that does
   not overlap the window being cleared. *)
let relocate_first_fit ctx ~avoid (o : Heap.obj) =
  let free = Ctx.free_index ctx in
  match Free_index.first_fit_gap free ~size:o.size with
  | Some a when a + o.size <= Interval.start avoid || a >= Interval.stop avoid
    ->
      Some a
  | Some _ ->
      Free_index.first_fit_from free ~from:(Interval.stop avoid) ~size:o.size
  | None -> None

type decline = No_candidate | Relocation | Budget_spent | Attempts

(* Clear the [size]-word window at [start] by relocating its objects,
   largest first, so that relocation failures surface before most of
   the budget is spent. The caller's cap was read before any move: an
   earlier failed attempt may already have spent part of it, so each
   move is checked against what the budget holds now, and one it
   cannot pay for fails the attempt. *)
let clear_window ctx ~relocate ~size start =
  T.Counter.incr attempts_c;
  let heap = Ctx.heap ctx in
  let avoid = Interval.of_extent ~start ~len:size in
  let rec relocate_all = function
    | [] -> Ok start
    | (o : Heap.obj) :: rest -> (
        match relocate ctx ~avoid o with
        | None -> Error Relocation
        | Some _ when not (Heap.can_move heap o.size) -> Error Budget_spent
        | Some dst ->
            Heap.move heap o.oid ~dst;
            T.Counter.add evicted_words_c o.size;
            relocate_all rest)
  in
  Heap.objects_in heap ~start ~stop:(start + size)
  |> List.sort (fun (a : Heap.obj) (b : Heap.obj) -> Int.compare b.size a.size)
  |> relocate_all

(* Try candidates in order, at most [attempts] of them; on failure say
   why the last one failed. *)
let rec first_cleared ctx ~relocate ~size attempts last = function
  | [] -> Error last
  | _ when attempts = 0 -> Error Attempts
  | c :: rest -> (
      match clear_window ctx ~relocate ~size c.window_start with
      | Ok _ as cleared -> cleared
      | Error why -> first_cleared ctx ~relocate ~size (attempts - 1) why rest)

(* Clear one window and return its start address, or [None] when no
   candidate window can be cleared within [move_cap] words of budget. *)
let try_evict ?(max_attempts = 3) ?(relocate = relocate_first_fit) ws ctx
    ~size ~align ~move_cap =
  let heap = Ctx.heap ctx in
  let cap = min move_cap (Heap.available heap) in
  let candidates = candidates_capped ~cost_cap:cap ws ctx ~size ~align in
  match
    first_cleared ctx ~relocate ~size max_attempts No_candidate candidates
  with
  | Ok a ->
      T.Counter.incr cleared_c;
      Log.debug (fun k ->
          k "cleared window [%d,%d) (budget left %d)" a (a + size)
            (Heap.available heap));
      Some a
  | Error why ->
      T.Counter.incr
        (match why with
        | No_candidate -> declined_no_candidate_c
        | Relocation -> declined_relocation_c
        | Budget_spent -> declined_budget_c
        | Attempts -> declined_attempts_c);
      Log.debug (fun k ->
          k "no evictable %d-word window (%d candidates within cap %d)" size
            (List.length candidates) cap);
      None
