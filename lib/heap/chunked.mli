(** A growable int array in fixed-size chunks. Growing never copies,
    so it leaves no dead copy for the major GC; every index reads as
    [fill] until it is first written. *)

type t

val create : fill:int -> t

val get : t -> int -> int
(** [fill] for any index never written, negative ones included. *)

val set : t -> int -> int -> unit
(** Raises [Invalid_argument] on a negative index. *)
