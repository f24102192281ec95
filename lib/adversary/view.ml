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
   ints). [iter_present]/[fold_present]/[retain] must still visit
   records in exactly the order an [Oid.Table] ([Hashtbl.Make] over
   [Hashtbl.hash]) created with size 1024 would: the programs' choices
   follow that order (which ghost is freed first, which object a chunk
   keeps), and so do the event streams the behaviour lock pins. That
   order is a sort key ([Table_order]), so no bucket chain is kept:
   present oids ascending by [Hashtbl.hash oid land (nb - 1)], then
   descending by oid, with [nb] from 1024. Newest first is descending
   oid because the view inserts oids in increasing order (they are
   fresh from the heap). The walks build the order with one counting
   sort over the oids [0, hi), read sequentially, into a fresh array.
   It is not kept between walks: held while the program refills the
   heap, it raised robson-fit's peak RSS by 7%. *)

type record = {
  oid : Oid.t;
  orig_addr : int;
  size : int;
  mutable ghost : bool;
}

(* Per-oid storage grows a chunk at a time and never copies, so it
   leaves no dead copy for the major GC. [node] holds three ints per
   oid: original address, size (0 when the oid is not present) and
   [Hashtbl.hash oid]. *)
let stride = 3
let rec_bits = 10
let rec_len = 1 lsl rec_bits

type t = {
  driver : Driver.t;
  node : Chunked.t;
  mutable recs : record array array; (* oid -> record, [rec_len] a chunk *)
  mutable nb : int; (* the table's bucket count *)
  mutable count : int;
  mutable hi : int; (* no oid at or above [hi] is present *)
  mutable present_words : int; (* live + ghost *)
}

let absent = { oid = Oid.of_int 0; orig_addr = -1; size = 0; ghost = true }

let create driver =
  {
    driver;
    node = Chunked.create ~fill:0;
    recs = [||];
    nb = 1024;
    count = 0;
    hi = 0;
    present_words = 0;
  }

let[@inline] addr_at t o = Chunked.get t.node (o * stride)
let[@inline] size_at t o = Chunked.get t.node ((o * stride) + 1)
let[@inline] hash_at t o = Chunked.get t.node ((o * stride) + 2)
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

let insert t (r : record) =
  let o = Oid.to_int r.oid in
  let i = o * stride in
  Chunked.set t.node i r.orig_addr;
  Chunked.set t.node (i + 1) r.size;
  Chunked.set t.node (i + 2) (Hashtbl.hash o);
  set_record t o r;
  if o >= t.hi then t.hi <- o + 1;
  t.count <- t.count + 1;
  t.nb <- Table_order.grown ~count:t.count t.nb

(* Take a present record out of the view, without freeing it. *)
let forget t o size =
  Chunked.set t.node ((o * stride) + 1) 0;
  set_record t o absent;
  t.count <- t.count - 1;
  t.present_words <- t.present_words - size

(* The present oids in table order; an oid is its insertion rank. *)
let sorted_present t =
  Table_order.sort ~nb:t.nb ~count:t.count ~len:t.hi (fun o ->
      if size_at t o > 0 then hash_at t o else -1)

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
  forget t (Oid.to_int r.oid) r.size;
  if not r.ghost then Driver.free t.driver r.oid

(* [keep] runs on every record in table order first, and the doomed
   gather at the front of [order], a live one as its oid [o] and a
   ghost as [lnot o]. Then all of them are forgotten, and only then
   are the live ones freed, in the reverse of that order. Keeping the
   view's writes and the heap's frees in separate passes keeps each
   pass's working set small. *)
let retain t keep =
  let order = sorted_present t and doomed = ref 0 in
  for k = 0 to Array.length order - 1 do
    let o = Array.unsafe_get order k in
    if not (keep (addr_at t o) (size_at t o)) then begin
      Array.unsafe_set order !doomed
        (if (record_at t o).ghost then lnot o else o);
      incr doomed
    end
  done;
  for k = 0 to !doomed - 1 do
    let e = Array.unsafe_get order k in
    let o = if e < 0 then lnot e else e in
    forget t o (size_at t o)
  done;
  for k = !doomed - 1 downto 0 do
    let e = Array.unsafe_get order k in
    if e >= 0 then Driver.free t.driver (Oid.of_int e)
  done

let find t oid =
  if mem t oid then Some (record_at t (Oid.to_int oid)) else None
let present_words t = t.present_words
let present_count t = t.count

(* The order is fixed before [f] first runs, so [f] sees every record
   present at the call, as [Hashtbl.iter] does. *)
let iter_present t f =
  Array.iter (fun o -> f (record_at t o)) (sorted_present t)

let fold_present t ~init ~f =
  Array.fold_left (fun acc o -> f acc (record_at t o)) init (sorted_present t)

let sum_present t f =
  let total = ref 0 in
  for o = 0 to t.hi - 1 do
    let size = size_at t o in
    if size > 0 then total := !total + f (addr_at t o) size
  done;
  !total

let driver t = t.driver
let live_words t = Driver.live_words t.driver
