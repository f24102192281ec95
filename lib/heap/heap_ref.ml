(* The reference heap: a set of live objects placed at disjoint word
   extents of [0, ∞), plus the bookkeeping the paper's model needs —
   cumulative allocation (the budget recharge), cumulative moved words,
   and the high-water mark HS (the "smallest consecutive space" of
   Section 4, with the heap anchored at address 0). Written for
   clarity, not speed: it only runs as the kernel's oracle. *)

type obj = Heap_types.obj = { oid : Oid.t; addr : int; size : int }

type event = Heap_types.event =
  | Alloc of obj
  | Free of obj
  | Move of { oid : Oid.t; size : int; src : int; dst : int }

type free_index = Free_index_ref.t

type t = {
  objects : obj Oid.Table.t;
  mutable by_addr : obj Stdlib.Map.Make(Int).t;
  free : Free_index_ref.t;
  mutable next_oid : int;
  mutable live_words : int;
  mutable allocated_total : int;
  mutable moved_total : int;
  mutable freed_total : int;
  mutable high_water : int;
  mutable listeners : (event -> unit) list;
}

module Addr_map = Stdlib.Map.Make (Int)

let create () =
  {
    objects = Oid.Table.create 1024;
    by_addr = Addr_map.empty;
    free = Free_index_ref.create ();
    next_oid = 0;
    live_words = 0;
    allocated_total = 0;
    moved_total = 0;
    freed_total = 0;
    high_water = 0;
    listeners = [];
  }

let on_event t f = t.listeners <- f :: t.listeners

let emit t ev = List.iter (fun f -> f ev) t.listeners

let live_words t = t.live_words
let live_objects t = Oid.Table.length t.objects
let allocated_total t = t.allocated_total
let moved_total t = t.moved_total
let freed_total t = t.freed_total
let high_water t = t.high_water
let free_index t = t.free
let is_free t ~addr ~size = Free_index_ref.is_free t.free ~addr ~len:size

let get t oid =
  match Oid.Table.find_opt t.objects oid with
  | Some o -> o
  | None -> invalid_arg "Heap.get: unknown or dead object"

let bump_high_water t stop = if stop > t.high_water then t.high_water <- stop

let alloc t ~addr ~size =
  if size <= 0 then invalid_arg "Heap.alloc: non-positive size";
  if addr < 0 then invalid_arg "Heap.alloc: negative address";
  Free_index_ref.occupy t.free ~addr ~len:size;
  let oid = Oid.of_int t.next_oid in
  t.next_oid <- t.next_oid + 1;
  let o = { oid; addr; size } in
  Oid.Table.replace t.objects oid o;
  t.by_addr <- Addr_map.add addr o t.by_addr;
  t.live_words <- t.live_words + size;
  t.allocated_total <- t.allocated_total + size;
  bump_high_water t (addr + size);
  emit t (Alloc o);
  oid

let free t oid =
  let o = get t oid in
  Free_index_ref.release t.free ~addr:o.addr ~len:o.size;
  Oid.Table.remove t.objects oid;
  t.by_addr <- Addr_map.remove o.addr t.by_addr;
  t.live_words <- t.live_words - o.size;
  t.freed_total <- t.freed_total + o.size;
  emit t (Free o)

let move t oid ~dst =
  let o = get t oid in
  if dst = o.addr then ()
  else begin
    (* Free the source first so that a move into space overlapping the
       object's own old extent (a sliding move) is legal. *)
    Free_index_ref.release t.free ~addr:o.addr ~len:o.size;
    begin
      try Free_index_ref.occupy t.free ~addr:dst ~len:o.size
      with Invalid_argument _ as e ->
        (* Roll back so the heap stays consistent for the caller. *)
        Free_index_ref.occupy t.free ~addr:o.addr ~len:o.size;
        raise e
    end;
    let o' = { o with addr = dst } in
    Oid.Table.replace t.objects oid o';
    t.by_addr <- Addr_map.add dst o' (Addr_map.remove o.addr t.by_addr);
    t.moved_total <- t.moved_total + o.size;
    bump_high_water t (dst + o.size);
    emit t (Move { oid; size = o.size; src = o.addr; dst })
  end

let iter_live t f = Addr_map.iter (fun _ o -> f o) t.by_addr

(* Fold over the live objects intersecting [start, stop) in address
   order, straight off the address map — no intermediate list. *)
let fold_in t ~start ~stop ~init f =
  let acc =
    match Addr_map.find_last_opt (fun a -> a < start) t.by_addr with
    | Some (_, o) when o.addr + o.size > start -> f init o
    | Some _ | None -> init
  in
  let rec go acc seq =
    match seq () with
    | Seq.Cons ((a, o), rest) when a < stop -> go (f acc o) rest
    | Seq.Cons _ | Seq.Nil -> acc
  in
  go acc (Addr_map.to_seq_from start t.by_addr)

let objects_in t ~start ~stop =
  List.rev (fold_in t ~start ~stop ~init:[] (fun acc o -> o :: acc))

(* Exact total, which the kernel's must match bit for bit; the [cap]
   hint is unused. *)
let clear_cost t ~start ~stop ~cap:_ =
  fold_in t ~start ~stop ~init:0 (fun acc o -> acc + o.size)

let occupied_words_in t ~start ~stop =
  fold_in t ~start ~stop ~init:0 (fun acc o ->
      acc + (min stop (o.addr + o.size) - max start o.addr))

let check_invariants t =
  Free_index_ref.check_invariants t.free;
  let total = ref 0 in
  let prev_stop = ref 0 in
  Addr_map.iter
    (fun a o ->
      if a <> o.addr then failwith "Heap: by_addr key mismatch";
      if a < !prev_stop then failwith "Heap: overlapping objects";
      if Free_index_ref.is_free t.free ~addr:a ~len:o.size then
        failwith "Heap: live object marked free";
      prev_stop := a + o.size;
      total := !total + o.size)
    t.by_addr;
  if !total <> t.live_words then failwith "Heap: live_words drift";
  if Addr_map.cardinal t.by_addr <> Oid.Table.length t.objects then
    failwith "Heap: object-table drift";
  if !prev_stop > t.high_water then failwith "Heap: high_water too low";
  (* Every word below the frontier is either free or covered by an
     object; check by comparing word counts. *)
  let frontier = Free_index_ref.frontier t.free in
  let occupied_below =
    Addr_map.fold
      (fun _ o acc ->
        acc + max 0 (min frontier (o.addr + o.size) - min frontier o.addr))
      t.by_addr 0
  in
  if occupied_below + Free_index_ref.free_below_frontier t.free <> frontier then
    failwith "Heap: free/occupied words do not tile the frontier"
