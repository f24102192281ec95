(** The signatures shared by the heap kernel ([Heap], [Free_index]) and
    the persistent reference it is checked against ([Heap_ref],
    [Free_index_ref]). The two implementations are observationally
    identical: the differential suite and the [Differential] audit
    watchdog pin every query result to be bit-identical.

    Each query has one form, written once per implementation: a fit
    from the bottom of the heap is a [fit] (callers that
    only want a gap match on [Gap]), a whole-heap walk is an iterator,
    and a window query is a list or a sum. *)

(** Index of the free space of a conceptually unbounded heap [\[0, ∞)].

    Free space consists of a finite set of maximal gaps below a
    [frontier], plus the infinite free tail at [\[frontier, ∞)]. *)
module type FREE_INDEX = sig
  type t

  type fit = Heap_types.fit =
    | Gap of int  (** address inside an existing gap *)
    | Tail of int  (** address at (or aligned just above) the frontier *)

  val create : unit -> t

  val frontier : t -> int
  (** All addresses at or above the frontier are free. *)

  val gap_count : t -> int
  val free_below_frontier : t -> int
  val largest_gap : t -> int
  val is_free : t -> addr:int -> len:int -> bool

  val occupy : t -> addr:int -> len:int -> unit
  (** Mark an entirely-free extent occupied. Raises [Invalid_argument]
      otherwise. *)

  val release : t -> addr:int -> len:int -> unit
  (** Mark an occupied extent free, coalescing with neighbours and the
      tail. Raises [Invalid_argument] if any part is already free or
      the extent reaches beyond the frontier; a rejected release leaves
      the index unchanged. *)

  val first_fit : t -> size:int -> fit
  (** Lowest address where [size] words fit (always succeeds thanks to
      the tail). *)

  val first_fit_from : t -> from:int -> size:int -> int option
  (** Lowest address [>= from] inside an existing gap where [size]
      words fit. *)

  val best_fit_gap : t -> size:int -> int option
  (** Address of a smallest gap of length [>= size] (ties: lowest
      address). *)

  val worst_fit_gap : t -> size:int -> int option
  (** Address of the largest gap if it can hold [size] words (ties:
      highest address). *)

  val first_aligned_fit : t -> size:int -> align:int -> fit
  (** Lowest [align]-divisible address where [size] words fit. *)

  val first_aligned_fit_from :
    t -> from:int -> size:int -> align:int -> int option
  (** Lowest [align]-divisible address [>= from] where [size] words fit
      inside an existing gap. *)

  val iter_gaps : t -> (int -> int -> unit) -> unit
  (** [iter_gaps t f] calls [f start len] on every gap in address
      order. *)

  val largest_gaps : t -> k:int -> (int * int) list
  (** The [k] largest gaps as [(start, len)], longest first (ties:
      descending start). *)

  val iter_largest_gaps : t -> k:int -> (int -> int -> unit) -> unit
  (** [iter_largest_gaps t ~k f] calls [f start len] on the [k] largest
      gaps, longest first, without materialising a list. *)

  val check_invariants : t -> unit
  (** Raises [Failure] on a broken structural invariant; for tests. *)
end

(** The simulated heap.

    A set of live objects placed at disjoint word extents of
    [\[0, ∞)], with the bookkeeping the paper's model needs: cumulative
    allocated words (which recharge the compaction budget), cumulative
    moved words, and the high-water mark — the heap size [HS] of the
    paper ("the smallest consecutive space the memory manager may
    use", anchored at address 0).

    The heap is policy-free: {i where} objects go is decided by a
    memory manager (see [Pc_manager]); {i which} objects exist is
    decided by a program (see [Pc_adversary]). *)
module type HEAP = sig
  type t

  type free_index
  (** The implementation's {!FREE_INDEX}[.t]. *)

  type obj = Heap_types.obj = { oid : Oid.t; addr : int; size : int }

  type event = Heap_types.event =
    | Alloc of obj
    | Free of obj
    | Move of { oid : Oid.t; size : int; src : int; dst : int }

  val create : unit -> t

  val on_event : t -> (event -> unit) -> unit
  (** Subscribe to heap events; listeners fire synchronously, most
      recently added first. They are for observers: trace recorders,
      the audit oracles and [full] telemetry. The kernel feeds the
      c-partial budget and the driver's move reports without one, so
      an untraced run attaches none and builds no event. *)

  val alloc : t -> addr:int -> size:int -> Oid.t
  (** Place a fresh object. Raises [Invalid_argument] if the extent is
      not entirely free or [size <= 0]. *)

  val free : t -> Oid.t -> unit
  (** Raises [Invalid_argument] on an unknown or dead object. *)

  val move : t -> Oid.t -> dst:int -> unit
  (** Relocate a live object; sliding moves overlapping the old extent
      are allowed. Counts the object's size towards {!moved_total}.
      Raises [Invalid_argument] if the destination is not free. *)

  val get : t -> Oid.t -> obj
  (** Raises [Invalid_argument] on an unknown or dead object. *)

  val live_words : t -> int
  val live_objects : t -> int

  val allocated_total : t -> int
  (** Cumulative words allocated over the whole execution (the paper's
      [s]). *)

  val moved_total : t -> int
  (** Cumulative words moved by compaction. *)

  val freed_total : t -> int

  val high_water : t -> int
  (** The heap size [HS] so far. *)

  val free_index : t -> free_index
  (** The free-space index (shared, read-only by convention: managers
      must mutate the heap only through {!alloc}/{!free}/{!move}). *)

  val is_free : t -> addr:int -> size:int -> bool

  val iter_live : t -> (obj -> unit) -> unit
  (** In address order, over a snapshot: the callback may mutate the
      heap. *)

  val objects_in : t -> start:int -> stop:int -> obj list
  (** Live objects intersecting [\[start, stop)], in address order. *)

  val occupied_words_in : t -> start:int -> stop:int -> int
  (** Number of live words inside [\[start, stop)]. *)

  val clear_cost : t -> start:int -> stop:int -> cap:int -> int
  (** Total size of the live objects intersecting [\[start, stop)]
      (straddlers count fully) — the cost of clearing a window, for
      planners that discard over-budget windows. [cap] is an
      early-exit hint: callers must only rely on the exact value when
      it is at most [cap]. Both implementations return the exact
      total. *)

  val check_invariants : t -> unit
  (** Full [O(n)] consistency check; raises [Failure] on drift. *)
end
