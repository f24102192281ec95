(** The adversary's book-keeping of "live or ghost" objects
    (Definition 4.1).

    Objects the manager compacts are immediately de-allocated on the
    heap but kept as {i ghosts} at their original allocation address;
    they participate in the program's decisions until the program's own
    de-allocation procedure discards them. *)

type record = {
  oid : Pc_heap.Oid.t;
  orig_addr : int;  (** allocation-time address; ghosts "reside" here *)
  size : int;
  mutable ghost : bool;
}

type t

val create : Driver.t -> t

val alloc : t -> size:int -> record
(** Allocate and track; any tracked object the manager moved while
    serving the request is ghosted (freed on the heap, kept in the
    view) before this returns. *)

val free : t -> record -> unit
(** Program-initiated de-allocation: frees live records on the heap;
    ghosts just disappear from the view. *)

val retain : t -> (int -> int -> bool) -> unit
(** [retain t keep] frees, as {!free} does, every present record for
    which [keep orig_addr size] is false. [keep] runs on every record
    in {!iter_present}'s order before anything is freed; the frees then
    come in the reverse of that order. [keep] must not use the view. *)

val find : t -> Pc_heap.Oid.t -> record option

val present_words : t -> int
(** Total size of live and ghost records. *)

val present_count : t -> int

val iter_present : t -> (record -> unit) -> unit
(** Visits every present record in the order an [Oid.Table] created
    with size 1024 would, and the programs' decisions (and so their
    event streams) depend on it. The order is a sort key: bucket
    [Hashtbl.hash oid land (nb-1)] ascending, then oid descending,
    where [nb] starts at 1024 and doubles whenever the count passes
    [2 nb]. That is the table's order because the view inserts oids
    in increasing order, the table puts each new binding first in its
    bucket, and a resize keeps each chain's relative order. The order
    is fixed before the first callback. The callback must not alloc or
    free through the view. *)

val fold_present : t -> init:'a -> f:('a -> record -> 'a) -> 'a
(** {!iter_present}'s order, under the same rule. *)

val sum_present : t -> (int -> int -> int) -> int
(** [sum_present t f] is the sum of [f orig_addr size] over the present
    records, visited in ascending oid order — for order-free
    aggregates, and faster than {!fold_present}. *)

val driver : t -> Driver.t
val live_words : t -> int
