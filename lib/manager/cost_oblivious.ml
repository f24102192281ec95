open Pc_heap

(* Cost-oblivious storage reallocation (Bender, Farach-Colton, Fekete,
   Fineman, Gilbert, "Cost-oblivious storage reallocation", arXiv
   1404.2019), simplified to the paper's model. Each power-of-two size
   class owns one *bucket*: a contiguous slotted arena. A full bucket
   is resized — an arena of twice the capacity is sited elsewhere and
   the class's objects migrate into it compactly. The scheme is
   cost-oblivious in the paper's sense: resizes happen on a doubling
   schedule driven purely by occupancy, never by inspecting what a
   particular placement will cost; the moves are paid for by the
   allocation volume accumulated since the class last resized, which
   is exactly the s/c recharge of the c-partial budget. When the
   budget has not recharged enough the resize is postponed and the
   allocation overflows to free space outside every bucket, until a
   later resize can afford to restart the class compactly.

   Bucket arenas reserve their free slots (slot padding included), so
   every placement query must skip extents overlapping an owned arena
   — a gap in the free index may still be bucket-reserved. Empty
   buckets are dropped eagerly, shrinking the class back to its
   initial capacity at the next allocation. A bucket is a [Pages.page]
   outside any grid: its slot bitmap is the page's.

   Each class also keeps the live words in its bucket, which is the
   bucket's [Evict.window_cost]: every object in an arena sits whole
   in one of its slots, and nothing else is ever placed across an
   owned arena. A postponed resize reads it instead of walking the
   arena on every allocation into the full class. *)

type state = {
  init_slots : int;
  arenas : Pages.page option array; (* class -> current bucket *)
  live : int array; (* class -> live words in its bucket *)
}

let max_class = 62

let arena_words (a : Pages.page) =
  Bytes.length a.slots * Pages.slot_size a.class_

let create_state ~init_slots =
  if init_slots < 1 then
    invalid_arg "Cost_oblivious.make: init_slots must be positive";
  {
    init_slots;
    arenas = Array.make max_class None;
    live = Array.make max_class 0;
  }

(* End of the first owned arena overlapping [addr, addr+size), if
   any. Deterministic: arenas are scanned in class order. *)
let overlapping state addr size =
  let stop = addr + size in
  let found = ref None in
  Array.iter
    (function
      | Some (a : Pages.page) when !found = None ->
          let a_stop = a.base + arena_words a in
          if addr < a_stop && a.base < stop then found := Some a_stop
      | _ -> ())
    state.arenas;
  !found

(* Lowest [align]-divisible address of a [size]-word extent that is
   both free and outside every owned arena. *)
let site state ctx ~size ~align =
  let free = Ctx.free_index ctx in
  let rec in_gaps from =
    match Free_index.first_aligned_fit_from free ~from ~size ~align with
    | None -> None
    | Some a -> (
        match overlapping state a size with
        | None -> Some a
        | Some stop -> in_gaps (Word.align_up stop ~align))
  in
  let rec at_tail a =
    match overlapping state a size with
    | None -> a
    | Some stop -> at_tail (Word.align_up stop ~align)
  in
  match in_gaps 0 with
  | Some a -> a
  | None -> at_tail (Word.align_up (Free_index.frontier free) ~align)

(* Double (or found) the class's bucket and migrate its objects,
   oldest address first; [None] when the budget cannot pay yet. *)
let resize state ctx class_ =
  let heap = Ctx.heap ctx in
  let slot = Pages.slot_size class_ in
  let old = state.arenas.(class_) in
  let cost = state.live.(class_) in
  if not (Heap.can_move heap cost) then None
  else begin
    let cap =
      match old with
      | None -> state.init_slots
      | Some a -> Bytes.length a.slots * 2
    in
    let base = site state ctx ~size:(cap * slot) ~align:slot in
    let a = Pages.page ~base ~class_ ~slots:cap in
    let migrants =
      match old with
      | None -> []
      | Some a ->
          Heap.objects_in heap ~start:a.base ~stop:(a.base + arena_words a)
    in
    (* The class's live words move with it: [live] stays. *)
    List.iteri
      (fun i (o : Heap.obj) ->
        Heap.move heap o.oid ~dst:(base + (i * slot));
        Pages.set_slot a i)
      migrants;
    state.arenas.(class_) <- Some a;
    Some a
  end

(* Raises [Failure] when a bucket's live words drift from its
   [Evict.window_cost]. *)
let check_costs state heap =
  Array.iteri
    (fun class_ arena ->
      let cost =
        match arena with
        | None -> 0
        | Some (a : Pages.page) ->
            Evict.window_cost heap ~start:a.base ~size:(arena_words a)
      in
      if state.live.(class_) <> cost then
        failwith
          (Printf.sprintf "Cost_oblivious: class %d memo %d, window cost %d"
             class_ state.live.(class_) cost))
    state.arenas

let alloc state ctx ~size =
  let class_ = Word.log2_ceil (max 1 size) in
  let arena =
    match state.arenas.(class_) with
    | Some a when not (Pages.is_full a) -> Some a
    | _ -> resize state ctx class_
  in
  match arena with
  | Some a ->
      let slot = Pages.find_free_slot a in
      Pages.set_slot a slot;
      state.live.(class_) <- state.live.(class_) + size;
      a.base + (slot * Pages.slot_size class_)
  | None -> (
      (* Resize postponed: overflow outside every bucket; no
         bookkeeping — the extent dies with the object. *)
      let free = Ctx.free_index ctx in
      let rec in_gaps from =
        match Free_index.first_fit_from free ~from ~size with
        | None -> None
        | Some a -> (
            match overlapping state a size with
            | None -> Some a
            | Some stop -> in_gaps stop)
      in
      let rec at_tail a =
        match overlapping state a size with
        | None -> a
        | Some stop -> at_tail stop
      in
      match in_gaps 0 with
      | Some a -> a
      | None -> at_tail (Free_index.frontier free))

let on_free state _ctx (o : Heap.obj) =
  let class_ = Word.log2_ceil (max 1 o.size) in
  match state.arenas.(class_) with
  | Some a
    when o.addr >= a.base
         && o.addr < a.base + arena_words a
         && (o.addr - a.base) mod Pages.slot_size class_ = 0 ->
      let slot = (o.addr - a.base) / Pages.slot_size class_ in
      (* Drop empty buckets: the class restarts at init capacity, the
         resizing-down half of the scheme. *)
      if Pages.clear_slot a slot then begin
        state.live.(class_) <- state.live.(class_) - o.size;
        if a.used = 0 then state.arenas.(class_) <- None
      end
  | _ -> () (* overflow object; nothing to track *)

let make ?(init_slots = 4) () =
  Manager.stateful ~name:"cost-oblivious"
    ~description:
      "c-partial; cost-oblivious resizing buckets: doubling size-class \
       arenas, migrations paid by allocation volume"
    ~init:(fun _ -> create_state ~init_slots)
    ~on_free alloc
