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
   - Entries are nodes of one pooled, doubly linked int list: the entry
     [oid·2 + half] packed with the log2 of the object size (every size
     is a power of two), next, prev and the chunk. Freed nodes are
     reused; [pack] renumbers them so each chunk's list is one run.
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
   [entry lsl 6 lor log]; next; prev; the chunk, -1 while free. *)
let n_stride = 4
let n_val = 0
let n_next = 1
let n_prev = 2
let n_chunk = 3

type t = {
  ell : int; (* density exponent: target density 2^-ell *)
  mutable chunk_log : int; (* current chunk size is 2^chunk_log *)
  chunk : Chunked.t;
  seq : Chunked.t; (* insertion rank -> chunk, ranks [0, count) *)
  mutable count : int; (* chunks carrying state *)
  mutable nb : int; (* the table's bucket count *)
  mutable hi : int; (* no chunk at or above [hi] carries state *)
  mutable node : Chunked.t;
  mutable nodes : int; (* nodes ever handed out *)
  mutable free : int; (* free nodes, linked through [n_next] *)
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
    nodes = 0;
    free = none;
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
let[@inline] entry_at t n = nget t n n_val lsr 6

let[@inline] log2_at t n =
  let v = nget t n n_val in
  (v land 63) - ((v lsr 6) land 1)

let[@inline] set_entry t n e ~log = nset t n n_val ((e lsl 6) lor log)

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

(* [next] is read before [f] runs, so [f] may unlink the node. *)
let iter_entries t idx f =
  let n = ref (head t idx) in
  while !n >= 0 do
    let cur = !n in
    n := nget t cur n_next;
    f (entry_at t cur) (log2_at t cur)
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

let drop_slot t o n =
  if slot t o 0 = n then Chunked.set t.slots (2 * o) none
  else Chunked.set t.slots ((2 * o) + 1) none

let release t n =
  nset t n n_chunk (-1);
  nset t n n_next t.free;
  t.free <- n

(* Link node [n] at the front of chunk [idx]'s list; a middle chunk
   leaves E. *)
let push t idx n =
  touch t idx;
  let h = head t idx in
  let h = if h = middle then none else h in
  nset t n n_next h;
  nset t n n_prev none;
  if h >= 0 then nset t h n_prev n;
  nset t n n_chunk idx;
  set_head t idx n;
  cset t idx c_sum (cget t idx c_sum + (1 lsl log2_at t n))

let unlink t n =
  let idx = nget t n n_chunk in
  let next = nget t n n_next and prev = nget t n n_prev in
  if prev < 0 then set_head t idx next else nset t prev n_next next;
  if next >= 0 then nset t next n_prev prev;
  cset t idx c_sum (cget t idx c_sum - (1 lsl log2_at t n))

let add_entry t idx o ~log ~half =
  let n =
    if t.free >= 0 then begin
      let n = t.free in
      t.free <- nget t n n_next;
      n
    end
    else begin
      t.nodes <- t.nodes + 1;
      t.nodes - 1
    end
  in
  set_entry t n ((2 * o) + if half then 1 else 0) ~log;
  push t idx n;
  add_slot t o n

let assoc_whole t oid ~obj_size ~chunk =
  let log = Pc_bounds.Logf.log2_exact obj_size in
  add_entry t chunk (Oid.to_int oid) ~log ~half:false

(* Renumber the nodes so that each chunk's list is one run of
   consecutive nodes, chunks ascending; spare nodes go. *)
let pack t =
  let node = Chunked.create ~fill:(-1) and m = ref 0 in
  for idx = 0 to t.hi - 1 do
    let n = ref (head t idx) in
    if !n >= 0 then set_head t idx !m;
    while !n >= 0 do
      let cur = !n and k = !m in
      n := nget t cur n_next;
      let at f v = Chunked.set node ((k * n_stride) + f) v in
      at n_val (nget t cur n_val);
      at n_next (if !n >= 0 then k + 1 else none);
      at n_prev (if nget t cur n_prev >= 0 then k - 1 else none);
      at n_chunk idx;
      let o = entry_at t cur lsr 1 in
      Chunked.set t.slots ((2 * o) + if slot t o 0 = cur then 0 else 1) k;
      m := k + 1
    done
  done;
  t.node <- node;
  t.nodes <- !m;
  t.free <- none

let assoc_halves t oid ~obj_size ~chunk1 ~chunk2 =
  if chunk1 = chunk2 then assoc_whole t oid ~obj_size ~chunk:chunk1
  else begin
    let log = Pc_bounds.Logf.log2_exact obj_size in
    if log = 0 then invalid_arg "Association.assoc_halves: a 1-word object";
    let o = Oid.to_int oid in
    add_entry t chunk1 o ~log ~half:true;
    add_entry t chunk2 o ~log ~half:true
  end

let set_middle t idx =
  touch t idx;
  if head t idx >= 0 then
    invalid_arg "Association.set_middle: chunk has entries";
  set_head t idx middle

(* Remove one entry from a chunk. *)
let remove_entry t idx e =
  let o = e lsr 1 in
  let n = node_in t o idx in
  if n < 0 || entry_at t n <> e then
    invalid_arg "Association.remove_entry: entry not found";
  unlink t n;
  drop_slot t o n;
  release t n

(* Reset a chunk for reuse by a fresh allocation (Algorithm 1 line
   14): drop every remaining entry (they are ghosts — a live object
   associated with a chunk intersects it, and a reused chunk holds no
   live words). Returns the oids that lost their last entry, i.e. the
   ghosts that cease to exist, in list order. *)
let reset_chunk t idx =
  if not (present t idx) then []
  else begin
    let vanished = ref [] and n = ref (head t idx) in
    while !n >= 0 do
      let next = nget t !n n_next and o = entry_at t !n lsr 1 in
      drop_slot t o !n;
      if any_node t o < 0 then vanished := Oid.of_int o :: !vanished;
      release t !n;
      n := next
    done;
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
    let other = nget t n n_chunk in
    unlink t n;
    make_whole t n;
    push t other n;
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

(* Set every node of the list from [n] on chunk [k]; returns the last
   node, or [none] for an empty list. *)
let relabel t n k =
  let last = ref none and n = ref n in
  while !n >= 0 do
    nset t !n n_chunk k;
    last := !n;
    n := nget t !n n_next
  done;
  !last

(* Step change (Algorithm 1 line 12): chunk size doubles, pairs of
   chunks merge, entry sets take unions; two halves of one object
   landing in the same merged chunk become a whole entry. The middle
   set E empties (Definition 4.12).

   Chunk k takes over chunks 2k and 2k+1, in place and in ascending k:
   step k writes only chunk k and reads only chunks 2k and 2k+1, which
   no earlier step wrote. A node relabelled at an earlier step names a
   chunk below k, so it never passes for a node of 2k or 2k+1. *)
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
  let head_of idx = max none (head t idx) in
  let clear idx =
    if present t idx then begin
      set_head t idx none;
      cset t idx c_sum 0;
      cset t idx c_key 0
    end
  in
  let new_hi = (old_hi + 1) / 2 in
  for k = 0 to new_hi - 1 do
    let ra = cget t (2 * k) c_key and rb = cget t ((2 * k) + 1) c_key in
    if ra = 0 && rb = 0 then clear k
    else begin
      let first, second =
        if rb = 0 || (ra > 0 && ra < rb) then (2 * k, (2 * k) + 1)
        else ((2 * k) + 1, 2 * k)
      in
      let hf = head_of first and hs = ref (head_of second) in
      (* Drop the second list's halves whose partner is in the first;
         the partner becomes whole where it stands. *)
      let n = ref !hs in
      while !n >= 0 do
        let cur = !n in
        let next = nget t cur n_next and e = entry_at t cur in
        n := next;
        if e land 1 = 1 then begin
          let o = e lsr 1 in
          let other = if slot t o 0 = cur then slot t o 1 else slot t o 0 in
          if other >= 0 && nget t other n_chunk = first then begin
            let prev = nget t cur n_prev in
            if prev < 0 then hs := next else nset t prev n_next next;
            if next >= 0 then nset t next n_prev prev;
            drop_slot t o cur;
            release t cur;
            make_whole t other
          end
        end
      done;
      let last = relabel t hf k in
      ignore (relabel t !hs k : int);
      let h =
        if last < 0 then !hs
        else begin
          if !hs >= 0 then begin
            nset t last n_next !hs;
            nset t !hs n_prev last
          end;
          hf
        end
      in
      let s = cget t first c_sum + cget t second c_sum in
      set_head t k h;
      cset t k c_sum s;
      cset t k c_key (Hashtbl.hash k + 1)
    end
  done;
  for idx = new_hi to old_hi - 1 do
    clear idx
  done;
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

(* One pass over the chunks, their lists and the oids. *)
let check_invariants t =
  let fail what = failwith ("Association: " ^ what) in
  let listed = ref 0 and ranked = Array.make t.hi false in
  for r = 0 to t.count - 1 do
    let idx = Chunked.get t.seq r in
    if idx >= t.hi || not (present t idx) then fail "ranked chunk absent";
    if ranked.(idx) then fail "chunk ranked twice";
    ranked.(idx) <- true
  done;
  let present_count = ref 0 in
  for idx = 0 to t.hi - 1 do
    if present t idx then begin
      incr present_count;
      if cget t idx c_key <> Hashtbl.hash idx + 1 then fail "hash drift";
      let s = ref 0 and prev = ref none and n = ref (head t idx) in
      if !n = middle && sum t idx <> 0 then fail "middle chunk with entries";
      while !n >= 0 do
        let cur = !n in
        if nget t cur n_chunk <> idx then fail "node on the wrong chunk";
        if nget t cur n_prev <> !prev then fail "broken back link";
        let o = entry_at t cur lsr 1 in
        if slot t o 0 <> cur && slot t o 1 <> cur then
          fail "missing loc back-reference";
        s := !s + (1 lsl log2_at t cur);
        incr listed;
        prev := cur;
        n := nget t cur n_next
      done;
      if !s <> sum t idx then fail "chunk sum drift"
    end
    else if head t idx <> none || sum t idx <> 0 then
      fail "state on an absent chunk"
  done;
  if !present_count <> t.count then fail "chunk count drift";
  let freed = ref 0 and n = ref t.free in
  while !n >= 0 do
    if nget t !n n_chunk <> -1 then fail "free node on a chunk";
    incr freed;
    n := nget t !n n_next
  done;
  if !listed + !freed <> t.nodes then fail "lost node";
  for o = 0 to t.oid_hi - 1 do
    let n0 = slot t o 0 and n1 = slot t o 1 in
    let check n =
      if n >= 0 && (nget t n n_chunk < 0 || entry_at t n lsr 1 <> o) then
        fail "stale loc"
    in
    check n0;
    check n1;
    if n0 >= 0 && n1 >= 0 then begin
      if nget t n0 n_chunk = nget t n1 n_chunk then fail "two entries on a chunk";
      if entry_at t n0 land entry_at t n1 land 1 = 0 then
        fail "a second entry beside a whole"
    end
  done
