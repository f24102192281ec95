(** Shared chunk-eviction machinery for compacting managers.

    Clearing an occupied window costs the total size of the objects
    intersecting it, paid from the compaction budget — the reuse cost
    at the heart of the paper's lower-bound argument. Candidate
    windows are discovered around the 64 largest gaps, keeping each
    scan at [O(64 · log live)]; the scan is kept in a {!t} and reused
    while {!Pc_heap.Free_index.epoch} stands still. *)

type candidate = { window_start : int; cost : int }
(** An aligned window and the total size of the objects it
    intersects. *)

type t
(** A manager's last window scan. It belongs to one execution: keep it
    in the manager's {!Manager.stateful} state. *)

val create : unit -> t

val window_cost : Pc_heap.Heap.t -> start:int -> size:int -> int
(** Total size of the live objects intersecting the window
    (straddlers count fully — they must be moved whole). *)

val window_candidates : t -> Ctx.t -> size:int -> align:int -> candidate list
(** Candidate aligned windows below the frontier, cheapest first (ties:
    lowest start), discovered around the 64 largest gaps. Reuses the
    last scan when the free index's epoch, [size] and [align] match
    it; the result is the same as a fresh scan's. *)

val relocate_first_fit :
  Ctx.t -> avoid:Pc_heap.Interval.t -> Pc_heap.Heap.obj -> int option
(** Default relocation target: lowest-addressed existing gap disjoint
    from [avoid]. *)

val try_evict :
  ?max_attempts:int ->
  ?relocate:
    (Ctx.t -> avoid:Pc_heap.Interval.t -> Pc_heap.Heap.obj -> int option) ->
  t ->
  Ctx.t ->
  size:int ->
  align:int ->
  move_cap:int ->
  int option
(** Try to clear an aligned [size]-word window by relocating its
    objects, considering windows that cost at most
    [min move_cap (budget available)] words. Returns the start of the
    cleared window. An attempt fails when an object has nowhere to go
    or when the budget left can no longer pay for its move; objects
    already moved when an attempt fails stay moved (the heap remains
    valid). At most [max_attempts] candidate windows are tried. A
    [None] counts one [evict.declined_*] reason. *)
