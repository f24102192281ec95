(** Recording and replaying heap event traces.

    Replaying a recorded trace onto a fresh heap reproduces the same
    final state and high-water mark — an end-to-end determinism check
    and an offline debugging aid. *)

type entry = { seq : int; event : Heap.event }
type t

val create : unit -> t

val record : t -> Heap.t -> unit
(** Start appending [heap]'s events to the trace. The heap should be
    fresh if the trace is meant to be replayable. *)

val of_events : Heap.event list -> t
(** A trace from a bare event list, numbered from 0 — how the shrinker
    builds candidate sub-traces. *)

val length : t -> int
val entries : t -> entry list
(** In execution order. *)

val iter : t -> (entry -> unit) -> unit

val replay : t -> (Heap.t, string) result
(** Re-execute the trace on a fresh heap. Trace-side oids are remapped
    to the replay heap's oids, so the trace need not be oid-dense: dropping
    events from a recorded trace leaves it replayable as long as no
    surviving event refers to a dropped allocation. [Error] reports
    the first event the heap rejects (unknown or duplicate oid,
    non-free extent) — for a shrinker this is a candidate rejection,
    not a crash. Exceptions raised by heap-event listeners attached to
    the replay heap (oracles), or by a kernel heap's budget, propagate
    unchanged. *)

val replay_onto :
  (module Heap_intf.HEAP with type t = 'h) -> t -> 'h -> (unit, string) result
(** {!replay} onto a caller-supplied (fresh) heap of either
    implementation — the kernel [(module Heap)] or the reference
    [(module Heap_ref)]. The caller can attach listeners (e.g. an audit
    oracle) before replaying. *)

val to_string : t -> string
val of_string : string -> t
(** Raises [Failure] on malformed input. *)

val pp : Format.formatter -> t -> unit

type stats = {
  events : int;
  allocs : int;
  frees : int;
  moves : int;
  allocated_words : int;
  freed_words : int;
  moved_words : int;
  size_histogram : int array;
      (** index [k] counts allocations with size in
          [\[2{^k}, 2{^k+1})] *)
  mean_lifetime : float;  (** events between alloc and free *)
  immortal : int;  (** allocated but never freed within the trace *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
