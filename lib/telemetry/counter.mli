(** Monotonic counters — no-ops while telemetry is disabled, and safe
    to bump from several domains at once. Create through
    {!Registry.counter} so snapshots see them. *)

type t

val v : string -> t
(** Unregistered constructor (used by {!Registry}); prefer
    [Registry.counter]. *)

val name : t -> string
val value : t -> int
val incr : t -> unit
val add : t -> int -> unit
val reset : t -> unit
