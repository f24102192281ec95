(** The process-wide telemetry switch (see the implementation notes on
    the zero-cost-when-disabled discipline). *)

type level = Off | Summary | Full

val active : bool ref
(** [true] iff the level is [Summary] or [Full]. Read-only for
    instruments ([if !Sink.active then ...] is the whole disabled-path
    cost); mutate only through {!set}. *)

val full_active : bool ref
(** [true] iff the level is [Full] — gates per-event instruments. *)

val level : unit -> level
val set : level -> unit
val to_string : level -> string
val of_string : string -> (level, [ `Msg of string ]) result
val pp : level Fmt.t
