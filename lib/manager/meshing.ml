open Pc_heap

(* Mesh-style compaction (Powers, Tench, Berger, McGregor, "Mesh:
   Compacting Memory Management for C/C++ Applications", arXiv
   1902.04738), adapted to the paper's single-address-space model.

   The heap is the shared [Pages] grid: page-aligned pages, each
   dedicated to one power-of-two size class and sliced into equal
   slots. Compaction never moves an object within a page: when a fresh
   page cannot be sited without raising the high-water mark, the
   manager looks for two pages of the same class whose occupancy
   bitmaps are disjoint and *meshes* them — every object of the
   sparser page moves to the identical slot offset in the other page
   (free exactly because the bitmaps do not overlap), and the emptied
   page's grid cell is reused for the new page. Meshing is only legal
   between pages of one class, where slot offsets coincide.

   The moves charge the c-partial budget like any other relocation
   (the merge costs exactly [Evict.window_cost] of the source page);
   when the budget cannot cover any meshable pair the heap simply
   grows, as Mesh itself degrades to plain segregated storage when no
   meshable span exists. *)

(* Sparsest pages per class considered when pairing. *)
let pair_window = 6

let bitmaps_disjoint (a : Pages.page) (b : Pages.page) =
  let n = Bytes.length a.slots in
  let rec loop i =
    i >= n
    || ((Bytes.get a.slots i = '\000' || Bytes.get b.slots i = '\000')
       && loop (i + 1))
  in
  Bytes.length b.slots = n && loop 0

(* Merge [src] into [dst]: every object keeps its slot offset, the
   destination slots are free by bitmap disjointness. Returns the
   released grid cell. *)
let mesh grid ctx (src : Pages.page) (dst : Pages.page) =
  let heap = Ctx.heap ctx in
  let objs =
    Heap.objects_in heap ~start:src.base
      ~stop:(src.base + Pages.page_words grid)
  in
  List.iter
    (fun (o : Heap.obj) ->
      Heap.move heap o.oid ~dst:(dst.base + (o.addr - src.base)))
    objs;
  for i = 0 to Bytes.length src.slots - 1 do
    if Bytes.get src.slots i = '\001' then Pages.occupy grid dst i
  done;
  Pages.retire grid src;
  src.base

(* Find the cheapest affordable meshable pair across all classes and
   merge it. Only the [pair_window] sparsest pages per class are
   paired, keeping the search bounded and deterministic. *)
let try_mesh grid ctx =
  let heap = Ctx.heap ctx in
  let by_class = Array.make Pages.max_class [] in
  Pages.fold
    (fun (p : Pages.page) () -> by_class.(p.class_) <- p :: by_class.(p.class_))
    grid ();
  let result = ref None in
  let class_ = ref 0 in
  while !result = None && !class_ < Pages.max_class do
    (match by_class.(!class_) with
    | [] | [ _ ] -> ()
    | pages ->
        let by_sparsity =
          List.sort
            (fun (a : Pages.page) (b : Pages.page) ->
              compare (a.used, a.base) (b.used, b.base))
            pages
        in
        let cands = List.filteri (fun i _ -> i < pair_window) by_sparsity in
        let rec try_pairs = function
          | [] -> ()
          | (src : Pages.page) :: rest ->
              let rec against = function
                | [] -> try_pairs rest
                | dst :: rest' ->
                    if
                      bitmaps_disjoint src dst
                      && Heap.can_move heap
                           (Evict.window_cost heap ~start:src.base
                              ~size:(Pages.page_words grid))
                    then result := Some (mesh grid ctx src dst)
                    else against rest'
              in
              against rest
        in
        try_pairs cands);
    incr class_
  done;
  !result

(* A fresh page that would land at the tail: keep it there if it
   stays under the high-water mark, and otherwise take a cell released
   by meshing — growing only as the last resort. *)
let at_tail grid ctx tail =
  if tail + Pages.page_words grid <= Heap.high_water (Ctx.heap ctx) then tail
  else match try_mesh grid ctx with Some cell -> cell | None -> tail

let make ?(page_words = 1 lsl 6) () =
  Manager.stateful ~name:"meshing"
    ~description:
      "c-partial; Mesh-style size-class pages, merged when occupancy bitmaps \
       are disjoint (no intra-page moves)"
    ~init:(fun _ -> Pages.create ~page_words)
    ~on_free:(fun grid _ctx o -> ignore (Pages.release grid o))
    (fun grid ctx ~size -> Pages.alloc grid ctx ~size ~at_tail:(at_tail grid))
