(** Stable, serialisable capture of the registry's instruments.

    The JSON form carries a [schema] tag ({!schema}, currently
    ["pc-telemetry/1"]); {!of_json} validates it so downstream tooling
    fails loudly on a version skew instead of misreading fields. *)

val schema : string

type histogram = {
  h_name : string;
  h_count : int; (* total samples, zeros included *)
  h_zeros : int;
  h_sum : int; (* sum of positive samples *)
  h_min : int;
  h_max : int;
  h_buckets : (int * int * int) list;
      (* (lo, hi, count): lo inclusive, hi exclusive; non-empty only *)
}

type span = {
  s_name : string;
  s_count : int;
  s_total : float; (* seconds, nested spans included *)
  s_self : float; (* seconds, nested spans excluded *)
  s_max : float; (* worst single interval, seconds *)
}

type t = {
  level : string; (* telemetry level the capture ran at *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram list;
  spans : span list;
}

val to_json : t -> Pc_json.Json.t

val of_json : Pc_json.Json.t -> (t, string) result
(** Checks the schema tag and every field shape. *)

val csv_header : string

val to_csv : t -> string
(** One wide table, one row per instrument; inapplicable columns are
    empty. Header is {!csv_header}. *)
