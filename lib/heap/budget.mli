(** The c-partial compaction budget (Section 2.1 of the paper).

    A c-partial memory manager may, at any point where the program has
    allocated [s] words in total, have moved at most [s/c] words in
    total. Allocation recharges the budget; moves drain it. A budget
    is the rule only: the totals it is applied to are the heap's
    ({!Heap.set_budget}). *)

type t

exception Exceeded of { requested : int; available : int }

val create : c:float -> t
(** Raises [Invalid_argument] unless [c > 1]. *)

val unlimited : unit -> t
(** A budget that never runs out — models unbounded compaction. *)

val is_unlimited : t -> bool
val c : t -> float

val quota : t -> allocated:int -> int
(** [⌊allocated / c⌋], the total compaction allowed once [allocated]
    words were allocated; [max_int] when unlimited. *)

val available : t -> allocated:int -> moved:int -> int
(** [quota - moved]: negative once [moved] overran the quota;
    [max_int] when unlimited. *)
