(* A point-in-time capture of every active instrument, with a stable
   schema ("pc-telemetry/1") so snapshots written by any pc command's
   --telemetry-out can be fed back to `pc report` or external
   tooling. *)

module Json = Pc_json.Json

let schema = "pc-telemetry/1"

type histogram = {
  h_name : string;
  h_count : int;
  h_zeros : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int * int) list; (* lo inclusive, hi exclusive, count *)
}

type span = {
  s_name : string;
  s_count : int;
  s_total : float; (* seconds, inclusive *)
  s_self : float; (* seconds, nested spans excluded *)
  s_max : float; (* worst single interval *)
}

type t = {
  level : string;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram list;
  spans : span list;
}


(* JSON encoding *)

let histogram_to_json h =
  Json.Obj
    [
      ("name", Json.String h.h_name);
      ("count", Json.Int h.h_count);
      ("zeros", Json.Int h.h_zeros);
      ("sum", Json.Int h.h_sum);
      ("min", Json.Int h.h_min);
      ("max", Json.Int h.h_max);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.Obj
                 [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ])
             h.h_buckets) );
    ]

let span_to_json s =
  Json.Obj
    [
      ("name", Json.String s.s_name);
      ("count", Json.Int s.s_count);
      ("total_s", Json.Float s.s_total);
      ("self_s", Json.Float s.s_self);
      ("max_s", Json.Float s.s_max);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("level", Json.String t.level);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) t.counters) );
      ( "gauges",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) t.gauges) );
      ("histograms", Json.List (List.map histogram_to_json t.histograms));
      ("spans", Json.List (List.map span_to_json t.spans));
    ]

(* Validating decoder *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int name = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S: expected int" name)

let as_float name = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error (Printf.sprintf "field %S: expected number" name)

let as_string name = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" name)

let int_field name j =
  let* v = field name j in
  as_int name v

let float_field name j =
  let* v = field name j in
  as_float name v

let string_field name j =
  let* v = field name j in
  as_string name v

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let bucket_of_json j =
  let* lo = int_field "lo" j in
  let* hi = int_field "hi" j in
  let* c = int_field "count" j in
  Ok (lo, hi, c)

let histogram_of_json j =
  let* h_name = string_field "name" j in
  let* h_count = int_field "count" j in
  let* h_zeros = int_field "zeros" j in
  let* h_sum = int_field "sum" j in
  let* h_min = int_field "min" j in
  let* h_max = int_field "max" j in
  let* bl = field "buckets" j in
  let* h_buckets =
    match bl with
    | Json.List l -> map_result bucket_of_json l
    | _ -> Error "histogram buckets: expected list"
  in
  Ok { h_name; h_count; h_zeros; h_sum; h_min; h_max; h_buckets }

let span_of_json j =
  let* s_name = string_field "name" j in
  let* s_count = int_field "count" j in
  let* s_total = float_field "total_s" j in
  let* s_self = float_field "self_s" j in
  let* s_max = float_field "max_s" j in
  Ok { s_name; s_count; s_total; s_self; s_max }

let of_json j =
  let* s = string_field "schema" j in
  if s <> schema then Error (Printf.sprintf "unknown snapshot schema %S (want %S)" s schema)
  else
    let* level = string_field "level" j in
    let* counters =
      match Json.member "counters" j with
      | Some (Json.Obj fields) ->
          map_result
            (fun (name, v) ->
              let* i = as_int name v in
              Ok (name, i))
            fields
      | Some _ -> Error "counters: expected object"
      | None -> Error "missing field \"counters\""
    in
    let* gauges =
      match Json.member "gauges" j with
      | Some (Json.Obj fields) ->
          map_result
            (fun (name, v) ->
              let* f = as_float name v in
              Ok (name, f))
            fields
      | Some _ -> Error "gauges: expected object"
      | None -> Error "missing field \"gauges\""
    in
    let* histograms =
      match Json.member "histograms" j with
      | Some (Json.List l) -> map_result histogram_of_json l
      | Some _ -> Error "histograms: expected list"
      | None -> Error "missing field \"histograms\""
    in
    let* spans =
      match Json.member "spans" j with
      | Some (Json.List l) -> map_result span_of_json l
      | Some _ -> Error "spans: expected list"
      | None -> Error "missing field \"spans\""
    in
    Ok { level; counters; gauges; histograms; spans }

(* CSV encoding: one wide table, one row per instrument; columns not
   applicable to an instrument kind are left empty. *)

let csv_header = "kind,name,count,value,sum,min,max,total_s,self_s,max_s"

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  let row kind name ~count ~value ~sum ~min ~max ~total ~self ~max_s =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n" kind name count value
         sum min max total self max_s)
  in
  let i = string_of_int in
  let f x = Printf.sprintf "%.9f" x in
  List.iter
    (fun (name, v) ->
      row "counter" name ~count:"" ~value:(i v) ~sum:"" ~min:"" ~max:""
        ~total:"" ~self:"" ~max_s:"")
    t.counters;
  List.iter
    (fun (name, v) ->
      row "gauge" name ~count:"" ~value:(f v) ~sum:"" ~min:"" ~max:"" ~total:""
        ~self:"" ~max_s:"")
    t.gauges;
  List.iter
    (fun h ->
      row "histogram" h.h_name ~count:(i h.h_count) ~value:"" ~sum:(i h.h_sum)
        ~min:(i h.h_min) ~max:(i h.h_max) ~total:"" ~self:"" ~max_s:"")
    t.histograms;
  List.iter
    (fun s ->
      row "span" s.s_name ~count:(i s.s_count) ~value:"" ~sum:"" ~min:""
        ~max:"" ~total:(f s.s_total) ~self:(f s.s_self) ~max_s:(f s.s_max))
    t.spans;
  Buffer.contents buf
