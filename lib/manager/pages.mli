(** The size-class page grid shared by the slab family ({!Segregated},
    {!Compact_fit}, {!Meshing}): page-aligned pages on a fixed grid,
    each dedicated to one power-of-two size class and sliced into equal
    slots, with a one-byte-per-slot occupancy bitmap. Objects of at
    least a page get a dedicated span of whole pages, which dies with
    the object and is not tracked.

    Empty pages are retired eagerly, so a fully-free grid cell never
    belongs to a live page and siting a page through an aligned fit
    query is safe. {!Cost_oblivious} arenas reuse the page record and
    its slot bitmap without the grid.

    Costs: the grid finds a page by page number in a flat array, and
    keeps each class's available pages as a bitset of page numbers
    with a count, so {!release}, {!lowest_avail}, {!highest_avail} and
    {!avail_count} never walk the pages. A page's [hint] lets
    {!find_free_slot} skip the occupied prefix of its bitmap. {!fold}
    walks the page array, so it costs one step per grid cell up to
    the highest page. *)

type page = private {
  base : int;
  class_ : int;  (** log2 of the slot size *)
  slots : Bytes.t;  (** ['\001'] for an occupied slot *)
  mutable used : int;  (** occupied slots *)
  mutable hint : int;
      (** a lower bound on the lowest free slot: every slot below it is
          occupied *)
}

val slot_size : int -> int
(** [slot_size class_] is [2{^class_}] words. *)

(** {1 Slot bitmaps} *)

val page : base:int -> class_:int -> slots:int -> page
(** A fresh empty page of [slots] slots, outside any grid. *)

val is_full : page -> bool

val find_free_slot : page -> int
(** The lowest free slot, searched from the page's [hint] (which it
    then raises to the slot found). Raises [Invalid_argument] on a
    full page. *)

val set_slot : page -> int -> unit
(** Mark a free slot occupied, raising [hint] past it when it sat at
    the hint. *)

val clear_slot : page -> int -> bool
(** Free the slot if it is occupied, lowering [hint] to it; [true] iff
    it was occupied. *)

(** {1 The grid} *)

type t

val max_class : int
(** Size classes are [0 .. max_class - 1]. *)

val create : page_words:int -> t
(** An empty grid. Raises [Invalid_argument] unless [page_words] is a
    power of two. *)

val page_words : t -> int

val alloc : t -> Ctx.t -> size:int -> at_tail:(Ctx.t -> int -> int) -> int
(** Place a [size]-word object. Its size class is [⌈log2 size⌉]; an
    object whose slot would be at least a page wide is large and gets
    the lowest aligned span of whole pages that fits. Otherwise it
    takes the lowest free slot of its class's lowest-addressed
    available page; when the class has none, a fresh page is sited in
    the lowest free grid cell, and when no cell is free, at
    [at_tail ctx tail], where [tail] is the page-aligned frontier. *)

val lowest_avail : t -> int -> page option
(** The class's lowest-addressed page with a free slot. *)

val highest_avail : t -> int -> page option
(** The class's highest-addressed page with a free slot. *)

val avail_count : t -> int -> int
(** How many of the class's pages have a free slot; O(1). *)

val take_slot : t -> page -> int
(** Occupy the lowest free slot of a grid page; returns its address. *)

val occupy : t -> page -> int -> unit
(** Occupy the given free slot of a grid page. *)

val vacate : t -> page -> int -> bool
(** Free the given slot of a grid page if it is occupied, retiring the
    page when it empties. [true] iff a slot was freed and the page is
    still live. *)

val release : t -> Pc_heap.Heap.obj -> page option
(** {!vacate} the slot a freed object occupied: [Some p] iff it sat in
    grid page [p] and [p] is still live. *)

val retire : t -> page -> unit
(** Drop a page from the grid. *)

val fold : (page -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the live pages in ascending address order. *)
