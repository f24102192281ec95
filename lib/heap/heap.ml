(* The heap kernel. Live objects live in flat parallel arrays
   indexed by slot; a growable int array maps oids to slots (oids are
   dense sequential ints, so an array beats a hashtable), a second one
   maps start addresses back to slots, and a hierarchical bitset over
   start addresses supplies address-ordered iteration and the
   straddler lookup for range queries. alloc/free/move are O(1) plus
   the free-index update; [fold_objects_in] and [clear_cost] are
   O(k log32 range) for k intersecting objects. Observationally
   identical to the reference [Heap_ref] (pinned by the differential
   suite).

   Memory note: [slot_of_oid] grows with the total number of
   allocations ever made (8 bytes each) and [slot_at] with the highest
   address touched — both linear in work already done by the
   simulation, and both far below the persistent reference's GC churn
   in practice. *)

type obj = Heap_types.obj = { oid : Oid.t; addr : int; size : int }

type event = Heap_types.event =
  | Alloc of obj
  | Free of obj
  | Move of { oid : Oid.t; size : int; src : int; dst : int }

type free_index = Free_index.t

type t = {
  free : Free_index.t;
  mutable slot_of_oid : int array; (* oid -> slot, -1 unknown/dead *)
  mutable oid_of : int array; (* slot -> oid; next-free link when dead *)
  mutable addr_of : int array; (* slot -> start address *)
  mutable size_of : int array; (* slot -> size *)
  mutable slots_used : int;
  mutable free_head : int; (* head of the dead-slot freelist, -1 none *)
  mutable slot_at : int array; (* start address -> slot, -1 none *)
  starts : Bitset.t; (* live-object start addresses *)
  mutable nlive : int;
  mutable next_oid : int;
  mutable live_words : int;
  mutable allocated_total : int;
  mutable moved_total : int;
  mutable freed_total : int;
  mutable high_water : int;
  mutable listeners : (event -> unit) list;
}

let create () =
  {
    free = Free_index.create ();
    slot_of_oid = Array.make 1024 (-1);
    oid_of = Array.make 1024 (-1);
    addr_of = Array.make 1024 (-1);
    size_of = Array.make 1024 0;
    slots_used = 0;
    free_head = -1;
    slot_at = Array.make 1024 (-1);
    starts = Bitset.create ();
    nlive = 0;
    next_oid = 0;
    live_words = 0;
    allocated_total = 0;
    moved_total = 0;
    freed_total = 0;
    high_water = 0;
    listeners = [];
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

let grown_copy a n ~fill =
  let cap = ref (2 * Array.length a) in
  while n >= !cap do
    cap := !cap * 2
  done;
  let a' = Array.make !cap fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure_oid t oid =
  if oid >= Array.length t.slot_of_oid then
    t.slot_of_oid <- grown_copy t.slot_of_oid oid ~fill:(-1)

let ensure_addr t addr =
  if addr >= Array.length t.slot_at then
    t.slot_at <- grown_copy t.slot_at addr ~fill:(-1)

let new_slot t =
  if t.free_head >= 0 then begin
    let s = t.free_head in
    t.free_head <- t.oid_of.(s);
    s
  end
  else begin
    let s = t.slots_used in
    if s >= Array.length t.oid_of then begin
      t.oid_of <- grown_copy t.oid_of s ~fill:(-1);
      t.addr_of <- grown_copy t.addr_of s ~fill:(-1);
      t.size_of <- grown_copy t.size_of s ~fill:0
    end;
    t.slots_used <- s + 1;
    s
  end

let release_slot t s =
  t.oid_of.(s) <- t.free_head;
  t.free_head <- s

(* Only valid on live slots (a dead slot's [oid_of] holds the freelist
   link). *)
let[@inline] obj_of_slot t s =
  { oid = Oid.of_int t.oid_of.(s); addr = t.addr_of.(s); size = t.size_of.(s) }

let slot_of_opt t oid =
  let i = Oid.to_int oid in
  if i >= 0 && i < Array.length t.slot_of_oid then t.slot_of_oid.(i) else -1

let slot_of t oid =
  let s = slot_of_opt t oid in
  if s < 0 then invalid_arg "Heap.get: unknown or dead object";
  s

let find t oid =
  let s = slot_of_opt t oid in
  if s < 0 then None else Some (obj_of_slot t s)

let get t oid = obj_of_slot t (slot_of t oid)
let addr t oid = t.addr_of.(slot_of t oid)
let size t oid = t.size_of.(slot_of t oid)
let[@inline] bump_high_water t stop = if stop > t.high_water then t.high_water <- stop

let alloc t ~addr ~size =
  if size <= 0 then invalid_arg "Heap.alloc: non-positive size";
  if addr < 0 then invalid_arg "Heap.alloc: negative address";
  Free_index.occupy t.free ~addr ~len:size;
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  let s = new_slot t in
  ensure_oid t oid;
  t.slot_of_oid.(oid) <- s;
  t.oid_of.(s) <- oid;
  t.addr_of.(s) <- addr;
  t.size_of.(s) <- size;
  ensure_addr t addr;
  t.slot_at.(addr) <- s;
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
  if !T.Sink.active then begin
    T.Counter.incr frees_c;
    T.Counter.add freed_words_c (size t oid)
  end;
  let s = slot_of t oid in
  let addr = t.addr_of.(s) and size = t.size_of.(s) in
  Free_index.release t.free ~addr ~len:size;
  t.slot_of_oid.(Oid.to_int oid) <- -1;
  release_slot t s;
  t.slot_at.(addr) <- -1;
  Bitset.remove t.starts addr;
  t.nlive <- t.nlive - 1;
  t.live_words <- t.live_words - size;
  t.freed_total <- t.freed_total + size;
  if has_listeners t then emit t (Free { oid; addr; size })

let move t oid ~dst =
  if !T.Sink.active then begin
    T.Counter.incr moves_c;
    T.Counter.add moved_words_c (size t oid)
  end;
  let s = slot_of t oid in
  let src = t.addr_of.(s) in
  if dst <> src then begin
    let size = t.size_of.(s) in
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
    t.slot_at.(src) <- -1;
    Bitset.remove t.starts src;
    t.addr_of.(s) <- dst;
    ensure_addr t dst;
    t.slot_at.(dst) <- s;
    Bitset.add t.starts dst;
    t.moved_total <- t.moved_total + size;
    bump_high_water t (dst + size);
    if has_listeners t then emit t (Move { oid; size; src; dst })
  end

(* [iter_live]/[fold_live] visit a snapshot taken up front, so the
   callback may freely alloc/free/move (the semispace flip moves every
   object mid-iteration) — mirroring the reference, whose
   persistent address map is immune to mutation during iteration. *)
let snapshot_live t =
  if t.nlive = 0 then [||]
  else begin
    let objs =
      Array.make t.nlive { oid = Oid.of_int 0; addr = -1; size = 0 }
    in
    let i = ref 0 in
    Bitset.iter t.starts (fun a ->
        objs.(!i) <- obj_of_slot t t.slot_at.(a);
        incr i);
    objs
  end

let iter_live t f = Array.iter f (snapshot_live t)
let fold_live t ~init ~f = Array.fold_left f init (snapshot_live t)

let live_list t = List.rev (fold_live t ~init:[] ~f:(fun acc o -> o :: acc))

(* Fold over the live objects intersecting [start, stop) in address
   order: the possible straddler from just below [start], then a bitset
   walk of starts in [start, stop). This is the hot query behind
   eviction cost estimates. *)
let fold_objects_in t ~start ~stop ~init ~f =
  let acc = ref init in
  let p = Bitset.pred t.starts (start - 1) in
  (if p >= 0 then begin
     let s = t.slot_at.(p) in
     if p + t.size_of.(s) > start then acc := f !acc (obj_of_slot t s)
   end);
  let rec go a =
    if a >= 0 && a < stop then begin
      acc := f !acc (obj_of_slot t t.slot_at.(a));
      go (Bitset.succ t.starts (a + 1))
    end
  in
  go (Bitset.succ t.starts start);
  !acc

let objects_in t ~start ~stop =
  List.rev (fold_objects_in t ~start ~stop ~init:[] ~f:(fun acc o -> o :: acc))

(* Sum [weight addr slot] over the live objects intersecting
   [start, stop), straight from the slot arrays, without materialising
   object records: the possible straddler from just below [start],
   then a bitset walk of starts in [start, stop). *)
let sum_objects_in t ~start ~stop weight =
  let total = ref 0 in
  let p = Bitset.pred t.starts (start - 1) in
  (if p >= 0 then begin
     let s = t.slot_at.(p) in
     if p + t.size_of.(s) > start then total := weight p s
   end);
  let rec go a =
    if a >= 0 && a < stop then begin
      total := !total + weight a t.slot_at.(a);
      go (Bitset.succ t.starts (a + 1))
    end
  in
  go (Bitset.succ t.starts start);
  !total

(* Straddlers count fully. Exact, so the [cap] hint is not needed. *)
let clear_cost t ~start ~stop ~cap:_ =
  sum_objects_in t ~start ~stop (fun _ s -> t.size_of.(s))

let occupied_words_in t ~start ~stop =
  sum_objects_in t ~start ~stop (fun a s ->
      min stop (a + t.size_of.(s)) - max start a)

let check_invariants t =
  Free_index.check_invariants t.free;
  let total = ref 0 and prev_stop = ref 0 and count = ref 0 in
  iter_live t (fun o ->
      if o.addr < !prev_stop then failwith "Heap: overlapping objects";
      if Free_index.is_free t.free ~addr:o.addr ~len:o.size then
        failwith "Heap: live object marked free";
      let s = slot_of_opt t o.oid in
      if s < 0 || t.addr_of.(s) <> o.addr || t.slot_at.(o.addr) <> s then
        failwith "Heap: slot-table drift";
      prev_stop := o.addr + o.size;
      total := !total + o.size;
      incr count);
  if !total <> t.live_words then failwith "Heap: live_words drift";
  if !count <> t.nlive then failwith "Heap: object-table drift";
  if !prev_stop > t.high_water then failwith "Heap: high_water too low";
  (* Every word below the frontier is either free or covered by an
     object; check by comparing word counts. *)
  let frontier = Free_index.frontier t.free in
  let occupied_below =
    fold_live t ~init:0 ~f:(fun acc o ->
        acc + max 0 (min frontier (o.addr + o.size) - min frontier o.addr))
  in
  if occupied_below + Free_index.free_below_frontier t.free <> frontier
  then failwith "Heap: free/occupied words do not tile the frontier"

let pp_obj = Heap_types.pp_obj
let pp_event = Heap_types.pp_event
