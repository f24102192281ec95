(** The heap kernel: an oid-indexed extent array, an address-to-oid
    array and an address bitset over {!Free_index}. O(1)
    alloc/free/move (plus the free-index update), which allocate
    nothing while no listener is attached; [clear_cost] and
    [occupied_words_in] walk the window's objects in the start bitset
    without building object records. Every mutation feeds the
    [heap.*] telemetry counters. See {!Heap_intf.HEAP} for the
    interface documentation.

    Beyond {!Heap_intf.HEAP}, the kernel carries the c-partial budget
    and a move log, so an untraced run needs no listener at all: the
    budget is fed by [alloc] and [move] themselves, and the driver
    reads a request's moves from the log. *)

include Heap_intf.HEAP with type free_index = Free_index.t

val set_budget : t -> Budget.t -> unit
(** The budget this heap feeds: [alloc] recharges it and [move] charges
    it, raising {!Budget.Exceeded} on an over-budget move after the
    move's event has reached the listeners. A fresh heap feeds its own
    {!Budget.unlimited}. *)

val has_listeners : t -> bool
(** [true] once anything subscribed with [on_event]. *)

val reset_move_log : t -> unit
(** Empty the move log and keep it on from now: every later [move]
    appends its oid, source, destination and size. A fresh heap logs
    nothing. *)

val fold_move_log :
  t ->
  init:'a ->
  f:(Oid.t -> src:int -> dst:int -> size:int -> 'a -> 'a) ->
  'a
(** Fold over the moves logged since the last {!reset_move_log},
    newest first. *)

val pp_obj : Format.formatter -> obj -> unit
val pp_event : Format.formatter -> event -> unit
