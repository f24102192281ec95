(** Minimal JSON reader/writer for the result cache and the benchmark
    report — no external dependency.

    Finite floats are printed with enough digits ([%.17g]) that every
    double round-trips bit-exactly; whole doubles print without a
    fractional part and therefore parse back as [Int] (use {!to_float}
    when a float is expected). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : ?indent:bool -> t -> string
val of_string : string -> t
(** Raises {!Parse_error} on malformed input. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on a missing field or a non-object. *)

val member_exn : string -> t -> t
(** Raises {!Parse_error} when the field is missing. *)

val to_int : t -> int option
(** Also accepts whole [Float]s. *)

val to_float : t -> float option
(** Also accepts [Int]s. *)

val to_string_opt : t -> string option
val to_bool : t -> bool option
