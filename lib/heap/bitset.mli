(** Growable hierarchical (32-ary radix) bitset over [\[0, cap)].

    Membership updates and ordered neighbour queries run in
    O(log32 cap) word operations without allocating, which is what the
    heap kernel leans on for its hot paths. Capacity grows on demand
    in [add]/[ensure]. *)

type t

val create : unit -> t
val capacity : t -> int

val ensure : t -> int -> unit
(** [ensure t n] grows the capacity so that index [n] is addressable. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** Idempotent; grows the set as needed. Raises [Invalid_argument] on a
    negative index. *)

val remove : t -> int -> unit
(** Idempotent; out-of-range indices are ignored. *)

val succ : t -> int -> int
(** Least member [>= i], or [-1]. *)

val pred : t -> int -> int
(** Greatest member [<= i], or [-1]. *)

val rev_iter_while : t -> from:int -> (int -> bool) -> unit
(** Visit members [<= from] in decreasing order while the callback
    returns [true]. A single pruned radix walk. *)

val is_empty : t -> bool
val iter : t -> (int -> unit) -> unit
(** Ascending order. *)
