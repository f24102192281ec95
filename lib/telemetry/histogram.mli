(** Log2-bucketed histograms over non-negative integer samples —
    no-ops while telemetry is disabled. Bucket [k] counts samples in
    [2^k, 2^(k+1)); samples <= 0 land in a dedicated zero cell. Create
    through {!Registry.histogram} so snapshots see them. *)

type t

val v : string -> t
val name : t -> string

val observe : t -> int -> unit

val count : t -> int
(** Total samples, zeros included. *)

val sum : t -> int
(** Sum of the positive samples. *)

val zeros : t -> int
val min_value : t -> int
val max_value : t -> int

val nbuckets : int

val bucket_index : int -> int
(** [bucket_index v] for [v >= 1] is [floor(log2 v)]. Pure — usable
    regardless of the telemetry level. Raises [Invalid_argument] on
    [v < 1]. *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] with [lo] inclusive, [hi] exclusive. *)

val iter_buckets : t -> (int -> int -> unit) -> unit
(** Iterates non-empty buckets in index order. *)

val reset : t -> unit
