open Pc_heap

(* The adversary's book-keeping of "live or ghost" objects.

   Algorithm 1's preamble: whenever the memory manager compacts an
   object, the program immediately de-allocates it but keeps treating
   it as a ghost residing at its original allocation address. Ghosts
   participate in all of the program's decisions until the program's
   own de-allocation procedure discards them (Definition 4.1).

   Live records always have [orig_addr] equal to their current heap
   address, because a moved object is ghosted before the program takes
   any further action.

   Storage is indexed by oid (oids are the heap's dense sequential
   ints). [iter_present]/[fold_present] must still visit records in
   exactly the order an [Oid.Table] ([Hashtbl.Make] over [Hashtbl.hash])
   created with size 1024 would: the programs' choices follow that
   order (which ghost is freed first, which object a chunk keeps), and
   so do the event streams the behaviour lock pins. So the records
   also sit on bucket chains held in int arrays:
   - bucket [Hashtbl.hash oid land (nb - 1)], buckets visited
     ascending;
   - a new record goes to the front of its bucket (newest first);
   - [nb] starts at 1024 and doubles once the count passes [2 nb], each
     old bucket's chain being appended, in order, to the new buckets
     its records hash to.
   The hash is computed on insertion and resize only; find, mem and
   remove are array reads through the oid. Chains are singly linked,
   so an insertion touches no other record; a lone [free] walks its
   bucket (two records long on average) to unlink, and [retain]
   unlinks as it walks. [sum_present] needs no order and walks the
   oids ascending instead. *)

type record = {
  oid : Oid.t;
  orig_addr : int;
  size : int;
  mutable ghost : bool;
}

(* Per-oid storage grows a chunk at a time and never copies, so it
   leaves no dead copy for the major GC. [node] holds four ints per
   oid: original address, size (0 when the oid is not present), next
   oid on the bucket chain (-1 at the end) and the bucket. *)
let stride = 4
let rec_bits = 10
let rec_len = 1 lsl rec_bits

type t = {
  driver : Driver.t;
  node : Chunked.t;
  mutable recs : record array array; (* oid -> record, [rec_len] a chunk *)
  mutable heads : int array; (* bucket -> first oid, -1 empty *)
  mutable count : int;
  mutable hi : int; (* no oid at or above [hi] is present *)
  mutable present_words : int; (* live + ghost *)
}

let absent = { oid = Oid.of_int 0; orig_addr = -1; size = 0; ghost = true }
let initial_buckets = 1024

let create driver =
  {
    driver;
    node = Chunked.create ~fill:0;
    recs = [||];
    heads = Array.make initial_buckets (-1);
    count = 0;
    hi = 0;
    present_words = 0;
  }

let[@inline] addr_at t o = Chunked.get t.node (o * stride)
let[@inline] size_at t o = Chunked.get t.node ((o * stride) + 1)
let[@inline] next_at t o = Chunked.get t.node ((o * stride) + 2)
let[@inline] bucket_at t o = Chunked.get t.node ((o * stride) + 3)
let[@inline] set_next t o n = Chunked.set t.node ((o * stride) + 2) n
let[@inline] set_bucket t o b = Chunked.set t.node ((o * stride) + 3) b
let mem t oid = size_at t (Oid.to_int oid) > 0

(* Only for oids that are present. *)
let[@inline] record_at t o =
  Array.unsafe_get
    (Array.unsafe_get t.recs (o lsr rec_bits))
    (o land (rec_len - 1))

let set_record t o r =
  let d = o lsr rec_bits in
  if d >= Array.length t.recs then begin
    let recs = Array.make (max 16 (2 * d)) [||] in
    Array.blit t.recs 0 recs 0 (Array.length t.recs);
    t.recs <- recs
  end;
  if Array.length t.recs.(d) = 0 then t.recs.(d) <- Array.make rec_len absent;
  t.recs.(d).(o land (rec_len - 1)) <- r

(* Double the bucket count. Visiting the old buckets ascending and
   appending each record to its new bucket keeps every new chain in
   the relative order its records had, as [Hashtbl]'s resize does. *)
let resize t =
  let nb = 2 * Array.length t.heads in
  let heads = Array.make nb (-1) and tails = Array.make nb (-1) in
  Array.iter
    (fun first ->
      let o = ref first in
      while !o >= 0 do
        let n = next_at t !o in
        let b = Hashtbl.hash !o land (nb - 1) in
        let tail = tails.(b) in
        if tail < 0 then heads.(b) <- !o else set_next t tail !o;
        set_next t !o (-1);
        set_bucket t !o b;
        tails.(b) <- !o;
        o := n
      done)
    t.heads;
  t.heads <- heads

let insert t (r : record) =
  let o = Oid.to_int r.oid in
  let b = Hashtbl.hash o land (Array.length t.heads - 1) in
  let i = o * stride in
  Chunked.set t.node i r.orig_addr;
  Chunked.set t.node (i + 1) r.size;
  set_next t o t.heads.(b);
  set_bucket t o b;
  t.heads.(b) <- o;
  set_record t o r;
  if o >= t.hi then t.hi <- o + 1;
  t.count <- t.count + 1;
  if t.count > 2 * Array.length t.heads then resize t

(* Mark [o] absent once it is off its chain. *)
let forget t o size =
  Chunked.set t.node ((o * stride) + 1) 0;
  set_record t o absent;
  t.count <- t.count - 1;
  t.present_words <- t.present_words - size

let unlink t o =
  let b = bucket_at t o and n = next_at t o in
  let first = t.heads.(b) in
  if first = o then t.heads.(b) <- n
  else begin
    let p = ref first in
    while next_at t !p <> o do
      p := next_at t !p
    done;
    set_next t !p n
  end

let ghost t (r : record) =
  if not r.ghost then begin
    Driver.free t.driver r.oid;
    r.ghost <- true
  end

let alloc t ~size =
  let oid, addr, moves = Driver.alloc t.driver ~size in
  let r = { oid; orig_addr = addr; size; ghost = false } in
  insert t r;
  t.present_words <- t.present_words + size;
  (* Ghost every tracked object the manager moved to serve this
     request — before the program takes any other action. *)
  List.iter
    (fun (mv : Driver.move_note) ->
      if mem t mv.oid then ghost t (record_at t (Oid.to_int mv.oid)))
    moves;
  r

(* Program-initiated de-allocation: real objects are freed on the
   heap; ghosts just disappear from the view. *)
let free t (r : record) =
  if not (mem t r.oid) then invalid_arg "View.free: record not present";
  if not r.ghost then Driver.free t.driver r.oid;
  let o = Oid.to_int r.oid in
  unlink t o;
  forget t o r.size

(* One walk in [iter_present]'s order that evaluates [keep] and takes
   the doomed records off their chains as it goes; the frees follow in
   the reverse of that order. *)
let retain t keep =
  let doomed = ref [] in
  for b = 0 to Array.length t.heads - 1 do
    let kept = ref (-1) and o = ref t.heads.(b) in
    while !o >= 0 do
      let n = next_at t !o in
      let size = size_at t !o in
      if keep (addr_at t !o) size then kept := !o
      else begin
        if !kept < 0 then t.heads.(b) <- n else set_next t !kept n;
        doomed := record_at t !o :: !doomed;
        forget t !o size
      end;
      o := n
    done
  done;
  List.iter
    (fun (r : record) -> if not r.ghost then Driver.free t.driver r.oid)
    !doomed

let find t oid =
  if mem t oid then Some (record_at t (Oid.to_int oid)) else None
let present_words t = t.present_words
let present_count t = t.count

(* The next record is read before [f] runs, as [Hashtbl.iter] does. *)
let iter_present t f =
  Array.iter
    (fun first ->
      let o = ref first in
      while !o >= 0 do
        let n = next_at t !o in
        f (record_at t !o);
        o := n
      done)
    t.heads

let fold_present t ~init ~f =
  let acc = ref init in
  iter_present t (fun r -> acc := f !acc r);
  !acc

let sum_present t f =
  let total = ref 0 in
  for o = 0 to t.hi - 1 do
    let size = size_at t o in
    if size > 0 then total := !total + f (addr_at t o) size
  done;
  !total

let driver t = t.driver
let live_words t = Driver.live_words t.driver
