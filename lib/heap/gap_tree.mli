(** Balanced tree of disjoint free gaps keyed by start address,
    augmented with the maximum gap length per subtree so that fit
    searches run in logarithmic time.

    The reference {!Free_index_ref} keeps its gaps here; the kernel's
    {!Free_index} does not use it. Gaps are identified by their start
    address; lengths are positive word counts. *)

type t

val empty : t
val count : t -> int
val total : t -> int
(** Total free words across all gaps. *)

val max_len : t -> int
(** Length of the longest gap, 0 when empty. *)

val add : t -> start:int -> len:int -> t
(** Raises [Invalid_argument] on a duplicate start address. *)

val remove : t -> start:int -> t
(** Raises [Invalid_argument] when no gap starts at [start]. *)

val pred : t -> addr:int -> (int * int) option
(** Greatest [(start, len)] with [start <= addr]. *)

val succ : t -> addr:int -> (int * int) option
(** Least [(start, len)] with [start >= addr]. *)

val first_fit : t -> size:int -> (int * int) option
(** Lowest-addressed gap of length [>= size]. *)

val first_fit_from : t -> from:int -> size:int -> (int * int) option
(** Lowest-addressed gap with start [>= from] and length [>= size]. *)

val first_aligned_fit : t -> size:int -> align:int -> int option
(** Lowest address [a] divisible by [align] such that [\[a, a + size)]
    fits inside a single gap. *)

val first_aligned_fit_from : t -> from:int -> size:int -> align:int -> int option
(** Like {!first_aligned_fit}, restricted to gaps starting at or above
    [from]. *)

val iter : t -> (int -> int -> unit) -> unit
(** In address order. *)

val check_balanced : t -> bool
(** Structural invariant check; intended for tests. *)
