open Pc_heap

(* The object-to-chunk association maintained by P_F's second stage
   (Section 4, Figure 4).

   At step i the heap is partitioned into aligned chunks of 2^i words;
   chunk k covers [k*2^i, (k+1)*2^i). Each chunk carries a set of
   associated objects — whole objects, or halves of objects whose two
   halves live on two chunks (Claim 4.15). Association survives both
   compaction (the entry stays at the old chunk while the object turns
   into a ghost) and de-allocation-by-migration of halves; it is the
   program's instrument for keeping every used chunk at density 2^-l,
   and the analysis' instrument for charging heap words (the potential
   function u, Definition 4.4, is computed from this structure).

   Representation: flat ints only, in [Chunked] arrays that grow a
   block at a time (nothing is sized by M up front, and growing leaves
   no dead copy for the GC). Each record's ints sit side by side, so a
   visit costs one cache miss, not one per field.
   - Per chunk number: the head of its entry list, the entry-size sum,
     and [Hashtbl.hash k] while the chunk carries state. A member of E
     never has entries; its head says so.
   - Entries are nodes of one pool of singly linked int lists: the
     entry [oid·2 + half] packed with the log2 of the object size
     (every size is a power of two), next and the chunk. A new node goes
     at the pool's end and at its list's front; a removed one is marked
     (chunk -1) where it stands, and walks skip it. [merge_step] is the
     only thing that lays the pool out: it copies the live nodes into a
     spare pool, chunks ascending, so each chunk's list is one run, and
     the two pools swap.
   - Per oid, two node slots: an object never has more than two
     entries, at most one per chunk.

   Order. P_F's choices follow the iteration order of the
   [(int, chunk) Hashtbl.t] this module used to keep, so the event
   streams the behaviour lock pins do too. That order is a sort key
   ([Table_order]), built per walk as [View] builds [Oid.Table]'s:
   [seq] lists the chunks in insertion order, [nb] starts at 256, and
   [merge_step] starts a fresh table the size of [Hashtbl.create count]
   and inserts each merged chunk when the first of its two halves
   comes up in the old order. Within a chunk, entries are newest first; [merge_step] puts
   the list of whichever half came first in the old order in front of
   the other's, and a half whose partner sits in that first list is
   dropped while the partner becomes whole in place — the order the
   table's cons-and-fold merge produced. *)

type entry = int

let entry_oid e = Oid.of_int (e lsr 1)
let entry_half e = e land 1 = 1

(* A chunk's head when it has no entries, and when it is in E. *)
let none = -1
let middle = -2

(* Chunk cells, read as 0 until written: the head plus one, the sum,
   and the hash plus one (0: the chunk carries no state). While
   [merge_step] runs, the hash cell holds the chunk's rank in the old
   order plus one instead. *)
let c_stride = 3
let c_head = 0
let c_sum = 1
let c_key = 2

(* Node cells: the entry and the log2 of its object size, packed as
   [entry lsl 6 lor log]; next; the chunk, -1 once removed. *)
let n_stride = 3
let n_val = 0
let n_next = 1
let n_chunk = 2

type t = {
  ell : int; (* density exponent: target density 2^-ell *)
  mutable chunk_log : int; (* current chunk size is 2^chunk_log *)
  chunk : Chunked.t;
  seq : Chunked.t; (* insertion rank -> chunk, ranks [0, count) *)
  mutable count : int; (* chunks carrying state *)
  mutable nb : int; (* the table's bucket count *)
  mutable hi : int; (* no chunk at or above [hi] carries state *)
  mutable node : Chunked.t;
  mutable spare : Chunked.t; (* the pool [merge_step] lays out next *)
  mutable nodes : int; (* nodes in [node], live or removed *)
  mutable removed : int; (* removed nodes since the last layout *)
  slots : Chunked.t; (* oid*2 + s -> node or [none], s = 0, 1 *)
  mutable oid_hi : int; (* no oid at or above [oid_hi] has a slot *)
}

let create ~chunk_log ~ell =
  if ell < 1 then invalid_arg "Association.create: need l >= 1";
  {
    ell;
    chunk_log;
    chunk = Chunked.create ~fill:0;
    seq = Chunked.create ~fill:0;
    count = 0;
    nb = 256;
    hi = 0;
    node = Chunked.create ~fill:(-1);
    spare = Chunked.create ~fill:(-1);
    nodes = 0;
    removed = 0;
    slots = Chunked.create ~fill:none;
    oid_hi = 0;
  }

let chunk_log t = t.chunk_log
let chunk_words t = 1 lsl t.chunk_log
let[@inline] cget t idx f = Chunked.get t.chunk ((idx * c_stride) + f)
let[@inline] cset t idx f v = Chunked.set t.chunk ((idx * c_stride) + f) v
let[@inline] head t idx = cget t idx c_head - 1
let[@inline] set_head t idx n = cset t idx c_head (n + 1)
let[@inline] present t idx = cget t idx c_key > 0
let[@inline] nget t n f = Chunked.get t.node ((n * n_stride) + f)
let[@inline] nset t n f v = Chunked.set t.node ((n * n_stride) + f) v
let[@inline] live t n = nget t n n_chunk >= 0
let[@inline] entry_at t n = nget t n n_val lsr 6

let[@inline] log2_at t n =
  let v = nget t n n_val in
  (v land 63) - ((v lsr 6) land 1)

(* Clear the half bit: the entry's oid stays, its size doubles. *)
let make_whole t n = nset t n n_val (nget t n n_val land lnot (1 lsl 6))
let[@inline] slot t o s = Chunked.get t.slots ((2 * o) + s)

(* Give a chunk state, as [Hashtbl.add] did on its first touch. *)
let touch t idx =
  if not (present t idx) then begin
    if idx < 0 then invalid_arg "Association: negative chunk index";
    cset t idx c_key (Hashtbl.hash idx + 1);
    Chunked.set t.seq t.count idx;
    t.count <- t.count + 1;
    t.nb <- Table_order.grown ~count:t.count t.nb;
    if idx >= t.hi then t.hi <- idx + 1
  end

let sum t idx = cget t idx c_sum
let is_middle t idx = head t idx = middle

(* [next] is read before [f] runs, so [f] may remove the node. *)
let iter_entries t idx f =
  let n = ref (head t idx) in
  while !n >= 0 do
    let cur = !n in
    n := nget t cur n_next;
    if live t cur then f (entry_at t cur) (log2_at t cur)
  done

let entries t idx =
  let acc = ref [] in
  iter_entries t idx (fun e _ -> acc := e :: !acc);
  List.rev !acc

(* The node of [oid]'s entry on chunk [idx], or [none]. *)
let node_in t o idx =
  let n0 = slot t o 0 in
  if n0 >= 0 && nget t n0 n_chunk = idx then n0
  else
    let n1 = slot t o 1 in
    if n1 >= 0 && nget t n1 n_chunk = idx then n1 else none

let any_node t o =
  let n0 = slot t o 0 in
  if n0 >= 0 then n0 else slot t o 1

let entry_size t e =
  let n = any_node t (e lsr 1) in
  if n < 0 then invalid_arg "Association.entry_size: entry not found";
  1 lsl ((nget t n n_val land 63) - (e land 1))

let locs_of t oid =
  let o = Oid.to_int oid in
  let loc s =
    let n = slot t o s in
    if n >= 0 then [ nget t n n_chunk ] else []
  in
  loc 0 @ loc 1

let add_slot t o n =
  if slot t o 0 < 0 then Chunked.set t.slots (2 * o) n
  else if slot t o 1 < 0 then Chunked.set t.slots ((2 * o) + 1) n
  else invalid_arg "Association: more than two entries for one object";
  if o >= t.oid_hi then t.oid_hi <- o + 1

(* Mark node [n] removed; its chunk's sum is the caller's. *)
let mark_removed t n =
  let o = entry_at t n lsr 1 in
  if slot t o 0 = n then Chunked.set t.slots (2 * o) none
  else Chunked.set t.slots ((2 * o) + 1) none;
  nset t n n_chunk (-1);
  t.removed <- t.removed + 1

(* A new node at the pool's end and the front of chunk [idx]'s list; a
   middle chunk leaves E. *)
let add_entry t idx o ~log ~half =
  touch t idx;
  let n = t.nodes and h = head t idx in
  t.nodes <- n + 1;
  nset t n n_val (((2 * o) + if half then 1 else 0) lsl 6 lor log);
  nset t n n_next (if h = middle then none else h);
  nset t n n_chunk idx;
  set_head t idx n;
  cset t idx c_sum (cget t idx c_sum + (1 lsl log2_at t n));
  add_slot t o n

let assoc_whole t oid ~obj_size ~chunk =
  let log = Pc_bounds.Logf.log2_exact obj_size in
  add_entry t chunk (Oid.to_int oid) ~log ~half:false

let assoc_halves t oid ~obj_size ~chunk1 ~chunk2 =
  if chunk1 = chunk2 then assoc_whole t oid ~obj_size ~chunk:chunk1
  else begin
    let log = Pc_bounds.Logf.log2_exact obj_size in
    if log = 0 then invalid_arg "Association.assoc_halves: a 1-word object";
    let o = Oid.to_int oid in
    add_entry t chunk1 o ~log ~half:true;
    add_entry t chunk2 o ~log ~half:true
  end

(* Every entry has a positive size, so a zero sum means no entries;
   removed nodes still on the list leave with it. *)
let set_middle t idx =
  touch t idx;
  if sum t idx > 0 then
    invalid_arg "Association.set_middle: chunk has entries";
  set_head t idx middle

let remove_node t n =
  let idx = nget t n n_chunk in
  cset t idx c_sum (cget t idx c_sum - (1 lsl log2_at t n));
  mark_removed t n

(* Remove one entry from a chunk. *)
let remove_entry t idx e =
  let n = node_in t (e lsr 1) idx in
  if n < 0 || entry_at t n <> e then
    invalid_arg "Association.remove_entry: entry not found";
  remove_node t n

(* Reset a chunk for reuse by a fresh allocation (Algorithm 1 line
   14): drop every remaining entry (they are ghosts — a live object
   associated with a chunk intersects it, and a reused chunk holds no
   live words). Returns the oids that lost their last entry, i.e. the
   ghosts that cease to exist, in list order. *)
let reset_chunk t idx =
  if not (present t idx) then []
  else begin
    let vanished = ref [] in
    iter_entries t idx (fun e _ ->
        let o = e lsr 1 in
        mark_removed t (node_in t o idx);
        if any_node t o < 0 then vanished := Oid.of_int o :: !vanished);
    set_head t idx none;
    cset t idx c_sum 0;
    List.rev !vanished
  end

(* Migrate a half entry out of [from_idx] to the chunk holding the
   object's other half (Algorithm 1 line 13: "when a half object is
   freed, associate it with the chunk that contains the other half").
   If both halves meet they merge into a whole entry, at the front of
   that chunk's list. Returns the destination chunk, or [None] when no
   other half exists (the object is a ghost whose other chunk was
   reused): the entry then simply disappears, and the caller should
   drop the object if this was its last entry. *)
let migrate_half t ~from_idx e =
  if not (entry_half e) then invalid_arg "Association.migrate_half: whole entry";
  remove_entry t from_idx e;
  let o = e lsr 1 in
  let n = any_node t o in
  if n < 0 then None
  else begin
    let other = nget t n n_chunk and log = nget t n n_val land 63 in
    remove_node t n;
    add_entry t other o ~log ~half:false;
    Some other
  end

(* The chunks carrying state, in the table's iteration order. *)
let walk t =
  let order =
    Table_order.sort ~nb:t.nb ~count:t.count ~len:t.count (fun r ->
        cget t (Chunked.get t.seq r) c_key - 1)
  in
  Array.map_inplace (Chunked.get t.seq) order;
  order

(* Step change (Algorithm 1 line 12): chunk size doubles, pairs of
   chunks merge, entry sets take unions; two halves of one object
   landing in the same merged chunk become a whole entry. The middle
   set E empties (Definition 4.12).

   Chunk k takes over chunks 2k and 2k+1, in place and in ascending k:
   step k writes only chunk k and reads only chunks 2k and 2k+1, which
   no earlier step wrote. Halves meet in a first pass over every pair,
   while each node still names its old chunk. A second pass copies the
   live nodes into the spare pool, first-visited half first, and points
   each oid's slot at the copy. If the oid's first slot already holds
   its other entry's new number, equal to the old number being copied,
   the copy takes the first slot and the second, still holding that
   number, names the other entry: the slots trade places, which nothing
   reads. *)
let merge_step t =
  let order = walk t in
  let old_count = t.count and old_hi = t.hi in
  Array.iteri (fun r idx -> cset t idx c_key (r + 1)) order;
  (* A merged chunk enters the new table when the first of its halves
     comes up: the sibling is absent (0) or ranks later. *)
  let count = ref 0 in
  Array.iteri
    (fun r idx ->
      let rs = cget t (idx lxor 1) c_key in
      if rs = 0 || rs > r + 1 then begin
        Chunked.set t.seq !count (idx lsr 1);
        incr count
      end)
    order;
  let new_hi = (old_hi + 1) / 2 in
  let first k =
    let ra = cget t (2 * k) c_key and rb = cget t ((2 * k) + 1) c_key in
    if rb = 0 || (ra > 0 && ra < rb) then 2 * k else (2 * k) + 1
  in
  (* Drop the second list's halves whose partner is in the first; the
     partner becomes whole where it stands, and the sums stay. *)
  for k = 0 to new_hi - 1 do
    let f = first k in
    iter_entries t (f lxor 1) (fun e _ ->
        if e land 1 = 1 then begin
          let o = e lsr 1 in
          let partner = node_in t o f in
          if partner >= 0 then begin
            mark_removed t (node_in t o (f lxor 1));
            make_whole t partner
          end
        end)
  done;
  let dst = t.spare and m = ref 0 in
  let copy k idx =
    let n = ref (head t idx) in
    while !n >= 0 do
      let cur = !n in
      n := nget t cur n_next;
      if live t cur then begin
        let j = !m in
        Chunked.set dst (j * n_stride) (nget t cur n_val);
        Chunked.set dst ((j * n_stride) + n_next) (j + 1);
        Chunked.set dst ((j * n_stride) + n_chunk) k;
        let o = entry_at t cur lsr 1 in
        Chunked.set t.slots ((2 * o) + if slot t o 0 = cur then 0 else 1) j;
        m := j + 1
      end
    done
  in
  let clear idx =
    if present t idx then begin
      set_head t idx none;
      cset t idx c_sum 0;
      cset t idx c_key 0
    end
  in
  for k = 0 to new_hi - 1 do
    if not (present t (2 * k) || present t ((2 * k) + 1)) then clear k
    else begin
      let f = first k and start = !m in
      copy k f;
      copy k (f lxor 1);
      if !m > start then Chunked.set dst (((!m - 1) * n_stride) + n_next) none;
      let s = sum t (2 * k) + sum t ((2 * k) + 1) in
      set_head t k (if !m > start then start else none);
      cset t k c_sum s;
      cset t k c_key (Hashtbl.hash k + 1)
    end
  done;
  for idx = new_hi to old_hi - 1 do
    clear idx
  done;
  t.spare <- t.node;
  t.node <- dst;
  t.nodes <- !m;
  t.removed <- 0;
  t.count <- !count;
  t.nb <- Table_order.created old_count;
  t.hi <- new_hi;
  t.chunk_log <- t.chunk_log + 1

let chunk_indices t = Array.fold_left (fun acc idx -> idx :: acc) [] (walk t)
let chunk_count t = t.count

(* The potential function u(t) of Definition 4.4:
   u = sum_D u_D - n/4, with u_D = 2^i for middle chunks and
   min(2^ell * sum_D, 2^i) otherwise. In the paper n/4 is the largest
   chunk ever (the last chunk may stick out of the heap); we take the
   same deduction. *)
let potential t ~n =
  let cw = chunk_words t in
  let total = ref 0 in
  for r = 0 to t.count - 1 do
    let idx = Chunked.get t.seq r in
    total :=
      !total
      +
      if is_middle t idx then cw else min ((1 lsl t.ell) * sum t idx) cw
  done;
  !total - (n / 4)

(* One pass over the chunks, their lists and the oids. Every node is
   live on its list or removed, and the removed ones on lists are among
   those counted since the last layout. *)
let check_invariants t =
  let fail what = failwith ("Association: " ^ what) in
  let ranked = Array.make t.hi false in
  for r = 0 to t.count - 1 do
    let idx = Chunked.get t.seq r in
    if idx >= t.hi || not (present t idx) then fail "ranked chunk absent";
    if ranked.(idx) then fail "chunk ranked twice";
    ranked.(idx) <- true
  done;
  let present_count = ref 0 and listed = ref 0 and removed = ref 0 in
  for idx = 0 to t.hi - 1 do
    if present t idx then begin
      incr present_count;
      if cget t idx c_key <> Hashtbl.hash idx + 1 then fail "hash drift";
      let s = ref 0 and n = ref (head t idx) in
      if !n = middle && sum t idx <> 0 then fail "middle chunk with entries";
      while !n >= 0 do
        let cur = !n in
        if cur >= t.nodes then fail "node past the pool's end";
        if not (live t cur) then incr removed
        else begin
          if nget t cur n_chunk <> idx then fail "node on the wrong chunk";
          let o = entry_at t cur lsr 1 in
          if slot t o 0 <> cur && slot t o 1 <> cur then
            fail "missing loc back-reference";
          s := !s + (1 lsl log2_at t cur);
          incr listed
        end;
        n := nget t cur n_next
      done;
      if !s <> sum t idx then fail "chunk sum drift"
    end
    else if head t idx <> none || sum t idx <> 0 then
      fail "state on an absent chunk"
  done;
  if !present_count <> t.count then fail "chunk count drift";
  let held = ref 0 in
  for o = 0 to t.oid_hi - 1 do
    let n0 = slot t o 0 and n1 = slot t o 1 in
    let check n =
      if n >= 0 then begin
        incr held;
        if n >= t.nodes || (not (live t n)) || entry_at t n lsr 1 <> o then
          fail "stale loc"
      end
    in
    check n0;
    check n1;
    if n0 >= 0 && n1 >= 0 then begin
      if nget t n0 n_chunk = nget t n1 n_chunk then fail "two entries on a chunk";
      if entry_at t n0 land entry_at t n1 land 1 = 0 then
        fail "a second entry beside a whole"
    end
  done;
  if !held <> !listed then fail "live node off its list";
  if !removed > t.removed || !listed + t.removed <> t.nodes then
    fail "lost node"
