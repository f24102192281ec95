(** The iteration order of a stdlib [Hashtbl] over int keys, reproduced
    as a sort key so that a flat structure can visit its bindings in
    the order the table it replaced did.

    The order: buckets [Hashtbl.hash k land (nb-1)] ascending, then
    newest binding first. It holds through resizes, which keep each
    bucket chain's relative order. *)

val created : int -> int
(** The bucket count of [Hashtbl.create n]: the least power of two
    [>= max 16 n]. *)

val grown : count:int -> int -> int
(** [grown ~count nb] is the bucket count after an [add] that brought
    the table to [count] bindings: [2 nb] once [count > 2 nb], else
    [nb]. It never shrinks. *)

val sort : nb:int -> count:int -> len:int -> (int -> int) -> int array
(** [sort ~nb ~count ~len hash] lists the insertion ranks [r] in
    [\[0, len)] with [hash r >= 0] in a walk's order over [nb] buckets,
    where [hash r] is [Hashtbl.hash] of rank [r]'s key and a negative
    value marks a rank that holds no binding. A higher rank is a newer
    binding. Exactly [count] ranks must hold a binding. *)
