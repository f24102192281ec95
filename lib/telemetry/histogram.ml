(* Log2-bucketed histograms over non-negative integer samples.

   Bucket [k] counts samples in [2^k, 2^(k+1)) — so bucket 0 holds
   exactly the sample 1, bucket 1 holds {2, 3}, bucket 2 holds [4, 8),
   and a power of two 2^k lands in bucket k (the lower boundary is
   inclusive, the upper exclusive). Samples <= 0 are counted in a
   dedicated [zeros] cell rather than smeared into bucket 0, keeping
   the boundary semantics exact (pinned by unit tests). 63 buckets
   cover every positive OCaml int. *)

type t = {
  name : string;
  buckets : int array;
  mutable zeros : int;
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let nbuckets = 63

let v name =
  {
    name;
    buckets = Array.make nbuckets 0;
    zeros = 0;
    count = 0;
    sum = 0;
    min = max_int;
    max = min_int;
  }

let name t = t.name
let count t = t.count
let sum t = t.sum
let zeros t = t.zeros
let min_value t = if t.count = 0 then 0 else t.min
let max_value t = if t.count = 0 then 0 else t.max
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* floor(log2 v) for v >= 1. *)
let bucket_index v =
  if v < 1 then invalid_arg "Histogram.bucket_index: sample < 1";
  let b = ref 0 and x = ref v in
  while !x > 1 do
    incr b;
    x := !x lsr 1
  done;
  !b

(* Inclusive-lo, exclusive-hi bounds of bucket [k]. *)
let bucket_bounds k =
  if k < 0 || k >= nbuckets then invalid_arg "Histogram.bucket_bounds";
  (1 lsl k, if k = nbuckets - 1 then max_int else 1 lsl (k + 1))

let observe t v =
  if !Sink.active then begin
    if v <= 0 then t.zeros <- t.zeros + 1
    else begin
      let b = bucket_index v in
      t.buckets.(b) <- t.buckets.(b) + 1;
      t.sum <- t.sum + v
    end;
    t.count <- t.count + 1;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v
  end

let iter_buckets t f =
  Array.iteri (fun k c -> if c > 0 then f k c) t.buckets

let reset t =
  Array.fill t.buckets 0 nbuckets 0;
  t.zeros <- 0;
  t.count <- 0;
  t.sum <- 0;
  t.min <- max_int;
  t.max <- min_int
