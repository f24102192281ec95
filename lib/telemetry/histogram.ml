(* Log2-bucketed histograms over non-negative integer samples.

   Bucket [k] counts samples in [2^k, 2^(k+1)) — so bucket 0 holds
   exactly the sample 1, bucket 1 holds {2, 3}, bucket 2 holds [4, 8),
   and a power of two 2^k lands in bucket k (the lower boundary is
   inclusive, the upper exclusive). Samples <= 0 are counted in a
   dedicated [zeros] cell rather than smeared into bucket 0, keeping
   the boundary semantics exact (pinned by unit tests). 63 buckets
   cover every positive OCaml int. *)

(* Every cell is an [Atomic], as a [Counter]'s value is, so
   observations from several worker domains at once (the kernel's
   histograms under a parallel sweep) are never lost; min and max move
   by compare-and-set. The disabled path is still one load of
   [Sink.active] and an untaken branch. *)
type t = {
  name : string;
  buckets : int Atomic.t array;
  zeros : int Atomic.t;
  count : int Atomic.t;
  sum : int Atomic.t;
  min : int Atomic.t;
  max : int Atomic.t;
}

let nbuckets = 63

let v name =
  {
    name;
    buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
    zeros = Atomic.make 0;
    count = Atomic.make 0;
    sum = Atomic.make 0;
    min = Atomic.make max_int;
    max = Atomic.make min_int;
  }

let name t = t.name
let count t = Atomic.get t.count
let sum t = Atomic.get t.sum
let zeros t = Atomic.get t.zeros
let min_value t = if count t = 0 then 0 else Atomic.get t.min
let max_value t = if count t = 0 then 0 else Atomic.get t.max

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

(* Move the min (max) cell down (up) to [v], retrying on a lost race. *)
let rec lower (cell : int Atomic.t) v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then lower cell v

let rec lift (cell : int Atomic.t) v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then lift cell v

let observe t v =
  if !Sink.active then begin
    if v <= 0 then Atomic.incr t.zeros
    else begin
      Atomic.incr t.buckets.(bucket_index v);
      ignore (Atomic.fetch_and_add t.sum v : int)
    end;
    Atomic.incr t.count;
    lower t.min v;
    lift t.max v
  end

let iter_buckets t f =
  Array.iteri
    (fun k c ->
      let c = Atomic.get c in
      if c > 0 then f k c)
    t.buckets

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.buckets;
  Atomic.set t.zeros 0;
  Atomic.set t.count 0;
  Atomic.set t.sum 0;
  Atomic.set t.min max_int;
  Atomic.set t.max min_int
