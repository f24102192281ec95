(* The heap kernel. Each object's extent lives in one interleaved int
   array indexed by oid ([ext] holds its start address at [2 oid], -1
   once dead or never allocated, and its size at [2 oid + 1]), so the
   two words a mutation reads share a cache line; oids are dense
   sequential ints, so an array beats a hashtable. A second array maps
   start addresses back to oids, and a hierarchical bitset over start
   addresses supplies address-ordered iteration and the straddler
   lookup for range queries. A free in arbitrary oid order touches the
   extent line, the address line and the bitset. alloc/free/move are
   O(1) plus the free-index update and, with no listener attached,
   allocate nothing; the window queries ([objects_in], [clear_cost],
   [occupied_words_in]) share one walk, O(k log32 range) for k
   intersecting objects. Observationally
   identical to the reference [Heap_ref] (pinned by the differential
   suite).

   Memory note: [ext] grows with the total number of allocations ever
   made (16 bytes each, dead or alive) and [oid_at] with the highest
   address touched (8 bytes per word) — both linear in work already
   done by the simulation. Both are [Chunked] arrays, so growing them
   leaves no dead copy behind for the major GC. *)

type obj = Heap_types.obj = { oid : Oid.t; addr : int; size : int }

type event = Heap_types.event =
  | Alloc of obj
  | Free of obj
  | Move of { oid : Oid.t; size : int; src : int; dst : int }

type free_index = Free_index.t

type t = {
  free : Free_index.t;
  ext : Chunked.t; (* 2 oid -> start (-1 dead), 2 oid + 1 -> size *)
  oid_at : Chunked.t; (* start address -> oid, -1 none *)
  starts : Bitset.t; (* live-object start addresses *)
  mutable nlive : int;
  mutable next_oid : int;
  mutable live_words : int;
  mutable allocated_total : int;
  mutable moved_total : int;
  mutable freed_total : int;
  mutable high_water : int;
  mutable listeners : (event -> unit) list;
  mutable budget : Budget.t; (* the rule over the two totals above *)
  mutable move_log : int array; (* oid, src, dst, size per move *)
  mutable logged : int; (* ints used in [move_log]; -1 while off *)
}

let create () =
  {
    free = Free_index.create ();
    ext = Chunked.create ~fill:(-1);
    oid_at = Chunked.create ~fill:(-1);
    starts = Bitset.create ();
    nlive = 0;
    next_oid = 0;
    live_words = 0;
    allocated_total = 0;
    moved_total = 0;
    freed_total = 0;
    high_water = 0;
    listeners = [];
    budget = Budget.unlimited ();
    move_log = [||];
    logged = -1;
  }

(* Telemetry: mutation counts and word volumes. Off costs one
   load+branch per operation; the [Full] level additionally buckets
   allocation sizes. *)
module T = Pc_telemetry

let allocs_c = T.Registry.counter "heap.allocs"
let alloc_words_c = T.Registry.counter "heap.alloc_words"
let frees_c = T.Registry.counter "heap.frees"
let freed_words_c = T.Registry.counter "heap.freed_words"
let moves_c = T.Registry.counter "heap.moves"
let moved_words_c = T.Registry.counter "heap.moved_words"
let alloc_size_h = T.Registry.histogram "heap.alloc_size"

let on_event t f = t.listeners <- f :: t.listeners
let[@inline] has_listeners t = t.listeners != []
let set_budget t b = t.budget <- b
let budget t = t.budget

let available t =
  Budget.available t.budget ~allocated:t.allocated_total ~moved:t.moved_total

let can_move t words = words <= available t

(* The move log: four ints a move, appended while it is on. The Driver
   resets it when a request starts, so it holds one request's moves. *)
let reset_move_log t =
  if Array.length t.move_log = 0 then t.move_log <- Array.make 64 0;
  t.logged <- 0

let log_move t oid src dst size =
  let n = t.logged in
  if n + 4 > Array.length t.move_log then begin
    let log = Array.make (2 * Array.length t.move_log) 0 in
    Array.blit t.move_log 0 log 0 n;
    t.move_log <- log
  end;
  let log = t.move_log in
  log.(n) <- oid;
  log.(n + 1) <- src;
  log.(n + 2) <- dst;
  log.(n + 3) <- size;
  t.logged <- n + 4

let fold_move_log t ~init ~f =
  let log = t.move_log in
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 4)
        (f (Oid.of_int log.(i)) ~src:log.(i + 1) ~dst:log.(i + 2)
           ~size:log.(i + 3) acc)
  in
  go (t.logged - 4) init

let emit t ev =
  match t.listeners with
  | [] -> ()
  | [ f ] -> f ev
  | fs -> List.iter (fun f -> f ev) fs

let live_words t = t.live_words
let live_objects t = t.nlive
let allocated_total t = t.allocated_total
let moved_total t = t.moved_total
let freed_total t = t.freed_total
let high_water t = t.high_water
let free_index t = t.free
let is_free t ~addr ~size = Free_index.is_free t.free ~addr ~len:size

(* [addr_of] is -1 for an oid that is dead or was never allocated. *)
let[@inline] addr_of t oid = Chunked.get t.ext (2 * oid)
let[@inline] size_of t oid = Chunked.get t.ext ((2 * oid) + 1)
let[@inline] oid_at t addr = Chunked.get t.oid_at addr

let[@inline] obj_of t oid =
  { oid = Oid.of_int oid; addr = addr_of t oid; size = size_of t oid }

let is_live t oid =
  let i = Oid.to_int oid in
  i >= 0 && addr_of t i >= 0

let live_oid t oid =
  if not (is_live t oid) then invalid_arg "Heap.get: unknown or dead object";
  Oid.to_int oid

let get t oid = obj_of t (live_oid t oid)
let[@inline] bump_high_water t stop = if stop > t.high_water then t.high_water <- stop

let alloc t ~addr ~size =
  if size <= 0 then invalid_arg "Heap.alloc: non-positive size";
  if addr < 0 then invalid_arg "Heap.alloc: negative address";
  Free_index.occupy t.free ~addr ~len:size;
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  Chunked.set t.ext (2 * oid) addr;
  Chunked.set t.ext ((2 * oid) + 1) size;
  Chunked.set t.oid_at addr oid;
  Bitset.add t.starts addr;
  t.nlive <- t.nlive + 1;
  t.live_words <- t.live_words + size;
  t.allocated_total <- t.allocated_total + size;
  bump_high_water t (addr + size);
  let oid = Oid.of_int oid in
  if has_listeners t then emit t (Alloc { oid; addr; size });
  if !T.Sink.active then begin
    T.Counter.incr allocs_c;
    T.Counter.add alloc_words_c size;
    if !T.Sink.full_active then T.Histogram.observe alloc_size_h size
  end;
  oid

let free t oid =
  let i = live_oid t oid in
  let addr = addr_of t i and size = size_of t i in
  Free_index.release t.free ~addr ~len:size;
  Chunked.set t.ext (2 * i) (-1);
  Chunked.set t.oid_at addr (-1);
  Bitset.remove t.starts addr;
  t.nlive <- t.nlive - 1;
  t.live_words <- t.live_words - size;
  t.freed_total <- t.freed_total + size;
  if !T.Sink.active then begin
    T.Counter.incr frees_c;
    T.Counter.add freed_words_c size
  end;
  if has_listeners t then emit t (Free { oid; addr; size })

(* A move to the object's own address is no move: no event, no
   [moved_total], and no [heap.moves] count. The budget is checked
   after the event goes out, so a listener (the oracle, a recorder)
   sees an over-budget move before [Budget.Exceeded] is raised; the
   move stays done and on the ledger. *)
let move t oid ~dst =
  let i = live_oid t oid in
  let src = addr_of t i in
  if dst <> src then begin
    let size = size_of t i in
    (* Free the source first so that a move into space overlapping the
       object's own old extent (a sliding move) is legal. *)
    Free_index.release t.free ~addr:src ~len:size;
    begin
      try Free_index.occupy t.free ~addr:dst ~len:size
      with Invalid_argument _ as e ->
        (* Roll back so the heap stays consistent for the caller. *)
        Free_index.occupy t.free ~addr:src ~len:size;
        raise e
    end;
    Chunked.set t.oid_at src (-1);
    Bitset.remove t.starts src;
    Chunked.set t.ext (2 * i) dst;
    Chunked.set t.oid_at dst i;
    Bitset.add t.starts dst;
    t.moved_total <- t.moved_total + size;
    bump_high_water t (dst + size);
    if !T.Sink.active then begin
      T.Counter.incr moves_c;
      T.Counter.add moved_words_c size
    end;
    if has_listeners t then emit t (Move { oid; size; src; dst });
    if t.logged >= 0 then log_move t i src dst size;
    let left = available t in
    if left < 0 then
      raise (Budget.Exceeded { requested = size; available = left + size })
  end

(* [iter_live] visits a snapshot taken up front, so the callback may
   freely alloc/free/move (the semispace flip moves every object
   mid-iteration) — mirroring the reference, whose persistent address
   map is immune to mutation during iteration. *)
let iter_live t f =
  if t.nlive > 0 then begin
    let objs =
      Array.make t.nlive { oid = Oid.of_int 0; addr = -1; size = 0 }
    in
    let i = ref 0 in
    Bitset.iter t.starts (fun a ->
        objs.(!i) <- obj_of t (oid_at t a);
        incr i);
    Array.iter f objs
  end

(* Fold [f acc addr oid] over the live objects intersecting
   [start, stop) in address order: the possible straddler from just
   below [start], then a bitset walk of starts in [start, stop). It
   reads the extent array and builds no object record, so the sums
   below allocate nothing but [f]. This is the hot query behind
   eviction cost estimates. *)
let fold_in t ~start ~stop ~init f =
  let acc = ref init in
  let p = Bitset.pred t.starts (start - 1) in
  (if p >= 0 then begin
     let o = oid_at t p in
     if p + size_of t o > start then acc := f !acc p o
   end);
  let rec go a =
    if a >= 0 && a < stop then begin
      acc := f !acc a (oid_at t a);
      go (Bitset.succ t.starts (a + 1))
    end
  in
  go (Bitset.succ t.starts start);
  !acc

let objects_in t ~start ~stop =
  List.rev (fold_in t ~start ~stop ~init:[] (fun acc _ o -> obj_of t o :: acc))

(* Straddlers count fully. Exact, so the [cap] hint is not needed. *)
let clear_cost t ~start ~stop ~cap:_ =
  fold_in t ~start ~stop ~init:0 (fun acc _ o -> acc + size_of t o)

let occupied_words_in t ~start ~stop =
  fold_in t ~start ~stop ~init:0 (fun acc a o ->
      acc + (min stop (a + size_of t o) - max start a))

(* One walk of the live objects in address order, straight from
   [starts] and [ext], with no snapshot. *)
let check_invariants t =
  Free_index.check_invariants t.free;
  let frontier = Free_index.frontier t.free in
  let total = ref 0 and prev_stop = ref 0 and count = ref 0 in
  let occupied_below = ref 0 in
  Bitset.iter t.starts (fun a ->
      let oid = oid_at t a in
      let addr = addr_of t oid and size = size_of t oid in
      if addr < !prev_stop then failwith "Heap: overlapping objects";
      if Free_index.is_free t.free ~addr ~len:size then
        failwith "Heap: live object marked free";
      if addr < 0 || oid_at t addr <> oid then
        failwith "Heap: extent-table drift";
      prev_stop := addr + size;
      total := !total + size;
      incr count;
      (* Every word below the frontier is either free or covered by an
         object; check by comparing word counts. *)
      occupied_below :=
        !occupied_below
        + max 0 (min frontier (addr + size) - min frontier addr));
  if !total <> t.live_words then failwith "Heap: live_words drift";
  if !count <> t.nlive then failwith "Heap: object-table drift";
  if !prev_stop > t.high_water then failwith "Heap: high_water too low";
  if !occupied_below + Free_index.free_below_frontier t.free <> frontier
  then failwith "Heap: free/occupied words do not tile the frontier"

let pp_obj = Heap_types.pp_obj
let pp_event = Heap_types.pp_event
