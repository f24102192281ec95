open Pc_heap

(* The adversary's book-keeping of "live or ghost" objects.

   Algorithm 1's preamble: whenever the memory manager compacts an
   object, the program immediately de-allocates it but keeps treating
   it as a ghost residing at its original allocation address. Ghosts
   participate in all of the program's decisions until the program's
   own de-allocation procedure discards them (Definition 4.1).

   An object is its oid, and everything the view knows of it sits in
   the per-oid cells below: no record per object, which every alloc
   would write into an old array and so promote. Live objects always
   have their original address equal to their current heap address,
   because a moved object is ghosted before the program takes any
   further action.

   Storage is indexed by oid (oids are the heap's dense sequential
   ints). [iter_present] must still visit objects in exactly the order
   an [Oid.Table] ([Hashtbl.Make] over [Hashtbl.hash]) created with
   size 1024 would: the programs' choices follow that order (which
   ghost is freed first, which object a chunk keeps), and so do the
   event streams the behaviour lock pins, which is why [retain] frees
   in its reverse whenever a listener or hook can see it. That order is a
   sort key ([Table_order]), so no bucket chain is kept: present oids
   ascending by [Hashtbl.hash oid land (nb - 1)], then descending by
   oid, with [nb] from 1024. Newest first is descending oid because the
   view inserts oids in increasing order (they are fresh from the
   heap). The walks build the order with one counting sort over the
   oids [0, hi), read sequentially, into a fresh array. It is not kept
   between walks: held while the program refills the heap, it raised
   robson-fit's peak RSS by 7%. *)

(* Per-oid storage grows a chunk at a time and never copies, so it
   leaves no dead copy for the major GC. [node] holds three ints per
   oid: original address, size (0 when the oid is not present) and
   [Hashtbl.hash oid] shifted left one bit, with the ghost flag in
   bit 0. *)
let stride = 3

type t = {
  driver : Driver.t;
  node : Chunked.t;
  mutable nb : int; (* the table's bucket count *)
  mutable count : int;
  mutable hi : int; (* no oid at or above [hi] is present *)
  mutable present_words : int; (* live + ghost *)
}

let create driver =
  {
    driver;
    node = Chunked.create ~fill:0;
    nb = 1024;
    count = 0;
    hi = 0;
    present_words = 0;
  }

let[@inline] addr_at t o = Chunked.get t.node (o * stride)
let[@inline] size_at t o = Chunked.get t.node ((o * stride) + 1)
let[@inline] tag_at t o = Chunked.get t.node ((o * stride) + 2)
let[@inline] ghost_at t o = tag_at t o land 1 = 1
let mem t oid = size_at t (Oid.to_int oid) > 0
let addr t oid = addr_at t (Oid.to_int oid)
let is_ghost t oid = ghost_at t (Oid.to_int oid)

(* Take a present oid out of the view, without freeing it. Its ghost
   bit stays, so the caller can tell whether the heap still holds it. *)
let forget t o =
  t.present_words <- t.present_words - size_at t o;
  Chunked.set t.node ((o * stride) + 1) 0;
  t.count <- t.count - 1

(* The present oids in table order; an oid is its insertion rank. *)
let sorted_present t =
  Table_order.sort ~nb:t.nb ~count:t.count ~len:t.hi (fun o ->
      if size_at t o > 0 then tag_at t o lsr 1 else -1)

let alloc t ~size =
  let oid, addr, moves = Driver.alloc t.driver ~size in
  let o = Oid.to_int oid in
  let i = o * stride in
  Chunked.set t.node i addr;
  Chunked.set t.node (i + 1) size;
  Chunked.set t.node (i + 2) (Hashtbl.hash o lsl 1);
  t.hi <- max t.hi (o + 1);
  t.count <- t.count + 1;
  t.nb <- Table_order.grown ~count:t.count t.nb;
  t.present_words <- t.present_words + size;
  (* Ghost every tracked object the manager moved to serve this
     request — before the program takes any other action. *)
  List.iter
    (fun (mv : Driver.move_note) ->
      let o = Oid.to_int mv.oid in
      if size_at t o > 0 && not (ghost_at t o) then begin
        Driver.free t.driver mv.oid;
        Chunked.set t.node ((o * stride) + 2) (tag_at t o lor 1)
      end)
    moves;
  oid

let free t oid =
  if not (mem t oid) then invalid_arg "View.free: oid not present";
  let o = Oid.to_int oid in
  forget t o;
  if not (ghost_at t o) then Driver.free t.driver oid

(* One pass in ascending oid order, read sequentially, judges and
   forgets each object in turn. When nothing can observe the free order
   ([Driver.frees_commute]) it frees each doomed live object at once.
   Otherwise it lists them, ascending, and frees them afterwards in the
   reverse of their table order: the doomed alone, in the order the
   whole table would visit them, since an oid's rank among ascending
   oids orders it as its insertion did. *)
let retain t keep =
  let commute = Driver.frees_commute t.driver in
  let doomed = Chunked.create ~fill:0 and n = ref 0 in
  for o = 0 to t.hi - 1 do
    let size = size_at t o in
    if size > 0 && not (keep (Oid.of_int o) (addr_at t o) size) then begin
      forget t o;
      if not (ghost_at t o) then
        if commute then Driver.free t.driver (Oid.of_int o)
        else begin
          Chunked.set doomed !n o;
          incr n
        end
    end
  done;
  if !n > 0 then begin
    let order =
      Table_order.sort ~nb:t.nb ~count:!n ~len:!n (fun r ->
          tag_at t (Chunked.get doomed r) lsr 1)
    in
    for k = !n - 1 downto 0 do
      Driver.free t.driver (Oid.of_int (Chunked.get doomed order.(k)))
    done
  end

let drop_ghosts t =
  for o = 0 to t.hi - 1 do
    if size_at t o > 0 && ghost_at t o then forget t o
  done

let present_words t = t.present_words
let present_count t = t.count

(* The order is fixed before [f] first runs, so [f] sees every object
   present at the call, as [Hashtbl.iter] does. *)
let iter_present t f =
  Array.iter (fun o -> f (Oid.of_int o) (addr_at t o) (size_at t o))
    (sorted_present t)

let sum_present t f =
  let total = ref 0 in
  for o = 0 to t.hi - 1 do
    let size = size_at t o in
    if size > 0 then total := !total + f (addr_at t o) size
  done;
  !total

let live_words t = Driver.live_words t.driver
