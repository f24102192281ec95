(** The c-partial compaction budget (Section 2.1 of the paper).

    A c-partial memory manager may, at any point where the program has
    allocated [s] words in total, have moved at most [s/c] words in
    total. Allocation recharges the budget; moves drain it. *)

type t

exception Exceeded of { requested : int; available : int }

val create : c:float -> t
(** Raises [Invalid_argument] unless [c > 1]. *)

val unlimited : unit -> t
(** A budget that never runs out — models unbounded compaction. *)

val is_unlimited : t -> bool
val c : t -> float
val moved : t -> int

val quota : t -> int
(** [⌊allocated / c⌋], the total compaction allowed so far. *)

val available : t -> int
(** [quota - moved]. *)

val can_move : t -> int -> bool

val on_alloc : t -> int -> unit
(** Recharge: record [words] freshly allocated words. *)

val charge_move : t -> int -> unit
(** Drain: record [words] moved. Raises {!Exceeded} when the move does
    not fit the remaining quota. *)

val is_compliant : t -> bool
(** [true] while the c-partial rule has never been violated. *)
