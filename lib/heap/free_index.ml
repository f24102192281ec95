(* The free-index kernel: a flat 32-ary radix bitmap over gap start
   addresses, augmented per node with the maximum gap length
   underneath. Observationally identical to the reference
   [Free_index_ref] (pinned by the differential suite in
   test/test_backend_diff.ml) but mutable and cache-friendly:
   occupy/release and the fit queries touch a handful of int-array
   words per level — O(log32 address-range) — where the persistent
   reference rebuilds O(log n) AVL spine nodes per operation.

   Allocation. occupy, release and the first-fit searches allocate
   nothing on the minor heap (test_kernel_alloc pins it), with two
   exceptions: a gap of 4096 words or more is counted in the [len_big]
   hashtable, which allocates, and a fit query boxes its result
   ([Gap]/[Tail] or an option). The aligned fits build a closure for
   their test, and [iter_largest_gaps] one per call.

   Representation. [gap_len] (a [Chunked] array, so growing it copies
   nothing) holds [l > 0] at [a] iff a maximal gap [a, a + l) starts
   at address [a], and 0 elsewhere. [masks] is the hierarchical bitmap
   of the set of gap starts (level 0 packs addresses 32 per word; bit
   [b] of [masks.(k).(w)] says child [w*32 + b] of level [k-1] is
   non-empty), and [maxl.(k).(w)] is the largest gap length anywhere
   under that node ([0] for an empty node). The capacity is a power of two and
   grows geometrically, so the top level always has exactly one word
   and [maxl.(nlevels-1).(0)] is the global largest gap.

   For best-fit parity with the reference (smallest sufficient length,
   ties by lowest address) we also index which gap lengths are present:
   [len_small]/[len_big] count gaps per exact length and [lens] is the
   bitset of lengths with non-zero count. *)

(* Reusable scratch for [iter_largest_gaps]: the (len, start) keys of
   the gaps it sorts, in two parallel int arrays. *)
type gap_keys = { mutable key_len : int array; mutable key_start : int array }

type t = {
  mutable frontier : int;
  mutable epoch : int; (* bumped by every mutation that can change a gap *)
  mutable nlevels : int;
  mutable cap : int; (* power of two; 32^nlevels >= cap *)
  mutable masks : int array array;
  mutable maxl : int array array;
  gap_len : Chunked.t; (* gap start -> length, 0 elsewhere *)
  mutable gap_count : int;
  mutable free_total : int;
  lens : Bitset.t; (* distinct gap lengths present *)
  len_small : int array; (* count of gaps per length < small_len_limit *)
  len_big : (int, int) Hashtbl.t; (* likewise for longer gaps *)
  keys : gap_keys; (* scratch for iter_largest_gaps *)
  mutable keys_busy : bool; (* reentrant calls fall back to fresh scratch *)
}

type fit = Heap_types.fit = Gap of int | Tail of int

let small_len_limit = 4096

let level_len cap k =
  let shift = 5 * (k + 1) in
  (cap + (1 lsl shift) - 1) lsr shift

let nlevels_for cap =
  let rec go n = if 1 lsl (5 * n) >= cap then n else go (n + 1) in
  go 1

let keys_make () = { key_len = Array.make 64 0; key_start = Array.make 64 0 }

let create () =
  let nlevels = 2 in
  let cap = 1 lsl (5 * nlevels) in
  {
    frontier = 0;
    epoch = 0;
    nlevels;
    cap;
    masks = Array.init nlevels (fun k -> Array.make (level_len cap k) 0);
    maxl = Array.init nlevels (fun k -> Array.make (level_len cap k) 0);
    gap_len = Chunked.create ~fill:0;
    gap_count = 0;
    free_total = 0;
    lens = Bitset.create ();
    len_small = Array.make small_len_limit 0;
    len_big = Hashtbl.create 16;
    keys = keys_make ();
    keys_busy = false;
  }

let frontier t = t.frontier
let epoch t = t.epoch
let gap_count t = t.gap_count
let free_below_frontier t = t.free_total
let[@inline] root_max t = t.maxl.(t.nlevels - 1).(0)
let largest_gap t = root_max t

(* Grow the capacity (by doubling) so that address [n] is addressable.
   Existing level arrays are prefixes of their grown versions. A fresh
   top level covers all old content under child 0, so it gets bit 0 and
   the old root max iff the structure is non-empty. *)
let ensure t n =
  if n >= t.cap then begin
    let cap = ref (t.cap * 2) in
    while n >= !cap do
      cap := !cap * 2
    done;
    let cap = !cap in
    let nlevels = nlevels_for cap in
    let masks = Array.make nlevels [||] and maxl = Array.make nlevels [||] in
    for k = 0 to nlevels - 1 do
      let len = level_len cap k in
      let m = Array.make len 0 and x = Array.make len 0 in
      if k < t.nlevels then begin
        Array.blit t.masks.(k) 0 m 0 (Array.length t.masks.(k));
        Array.blit t.maxl.(k) 0 x 0 (Array.length t.maxl.(k))
      end
      else if masks.(k - 1).(0) <> 0 then begin
        m.(0) <- 1;
        x.(0) <- maxl.(k - 1).(0)
      end;
      masks.(k) <- m;
      maxl.(k) <- x
    done;
    t.cap <- cap;
    t.nlevels <- nlevels;
    t.masks <- masks;
    t.maxl <- maxl
  end

let incr_len_count t len =
  let c =
    if len < small_len_limit then begin
      let c = t.len_small.(len) in
      t.len_small.(len) <- c + 1;
      c
    end
    else begin
      let c =
        match Hashtbl.find_opt t.len_big len with Some c -> c | None -> 0
      in
      Hashtbl.replace t.len_big len (c + 1);
      c
    end
  in
  if c = 0 then Bitset.add t.lens len

let decr_len_count t len =
  let c =
    if len < small_len_limit then begin
      let c = t.len_small.(len) - 1 in
      t.len_small.(len) <- c;
      c
    end
    else begin
      let c = Hashtbl.find t.len_big len - 1 in
      if c = 0 then Hashtbl.remove t.len_big len
      else Hashtbl.replace t.len_big len c;
      c
    end
  in
  if c = 0 then Bitset.remove t.lens len

(* Set the bit at each level; keep climbing only while this gap raises
   the node max (an empty word has max 0 < len, so a fresh bit always
   climbs). Like every level walk below, this is a top-level function
   taking [t] rather than a local closure over it, so calling it builds
   no closure. *)
let rec add_gap_up t len k idx =
  if k < t.nlevels then begin
    let w = idx lsr 5 and b = idx land 31 in
    t.masks.(k).(w) <- t.masks.(k).(w) lor (1 lsl b);
    if len > t.maxl.(k).(w) then begin
      t.maxl.(k).(w) <- len;
      add_gap_up t len (k + 1) w
    end
  end

let add_gap t start len =
  ensure t start;
  Chunked.set t.gap_len start len;
  t.gap_count <- t.gap_count + 1;
  t.free_total <- t.free_total + len;
  incr_len_count t len;
  add_gap_up t len 0 start

(* The largest of [nm] and the values of the children of word [w] at
   level [k] whose bits are set in [rest]. *)
let rec remax t k w nm rest =
  if rest = 0 then nm
  else begin
    let c = (w lsl 5) lor Bits.ntz32 rest in
    let v = if k = 0 then Chunked.get t.gap_len c else t.maxl.(k - 1).(c) in
    remax t k w (if v > nm then v else nm) (rest land (rest - 1))
  end

(* Clear the bit where the child emptied and recompute the node max
   where the removed child may have held it; stop as soon as neither
   the emptiness nor the max of the current word changed. *)
let rec remove_gap_up t k idx ~child_empty ~old_child_max ~new_child_max =
  if k < t.nlevels then begin
    let w = idx lsr 5 and b = idx land 31 in
    let word =
      if child_empty then begin
        let word = t.masks.(k).(w) land lnot (1 lsl b) in
        t.masks.(k).(w) <- word;
        word
      end
      else t.masks.(k).(w)
    in
    let old_max = t.maxl.(k).(w) in
    if old_child_max >= old_max then begin
      let nm = remax t k w new_child_max (word land lnot (1 lsl b)) in
      t.maxl.(k).(w) <- nm;
      if word = 0 || nm < old_max then
        remove_gap_up t (k + 1) w ~child_empty:(word = 0)
          ~old_child_max:old_max ~new_child_max:nm
    end
    (* else the max came from another child, so the word is still
       non-empty and nothing changes further up *)
  end

let remove_gap t start =
  let len = Chunked.get t.gap_len start in
  Chunked.set t.gap_len start 0;
  t.gap_count <- t.gap_count - 1;
  t.free_total <- t.free_total - len;
  decr_len_count t len;
  remove_gap_up t 0 start ~child_empty:true ~old_child_max:len
    ~new_child_max:0

let rec descend_max_start t k w =
  let c = (w lsl 5) lor Bits.msb32 t.masks.(k).(w) in
  if k = 0 then c else descend_max_start t (k - 1) c

let rec pred_start_up t k idx =
  if k >= t.nlevels || idx < 0 then -1
  else begin
    let w = idx lsr 5 and b = idx land 31 in
    let below = t.masks.(k).(w) land ((1 lsl (b + 1)) - 1) in
    if below <> 0 then begin
      let c = (w lsl 5) lor Bits.msb32 below in
      if k = 0 then c else descend_max_start t (k - 1) c
    end
    else if w = 0 then -1
    else pred_start_up t (k + 1) (w - 1)
  end

(* Greatest gap start <= i, or -1. *)
let pred_start t i =
  let i = min i (t.cap - 1) in
  if i < 0 then -1 else pred_start_up t 0 i

let rec descend_min_start t k w =
  let c = (w lsl 5) lor Bits.ntz32 t.masks.(k).(w) in
  if k = 0 then c else descend_min_start t (k - 1) c

let rec succ_start_up t k idx =
  if k >= t.nlevels then -1
  else begin
    let w = idx lsr 5 and b = idx land 31 in
    if w >= Array.length t.masks.(k) then -1
    else begin
      let rest = t.masks.(k).(w) lsr b in
      if rest <> 0 then begin
        let c = (w lsl 5) lor (b + Bits.ntz32 rest) in
        if k = 0 then c else descend_min_start t (k - 1) c
      end
      else succ_start_up t (k + 1) (w + 1)
    end
  end

(* Least gap start >= i, or -1. *)
let succ_start t i =
  let i = max i 0 in
  if i >= t.cap then -1 else succ_start_up t 0 i

(* [scan_up]/[bits_up] walk the radix tree for [search_up]: [scan_up]
   enters word [w] of level [k] at the first child at or after [lo];
   [bits_up] visits that word's set bits [rest] ascending from bit [b].
   Tail recursion keeps the state in registers. *)
let rec scan_up t ~lo ~size test k w =
  let base = w lsl 5 in
  let c0 = lo lsr (5 * k) in
  let b0 = if c0 <= base then 0 else c0 - base in
  if b0 > 31 then -1
  else bits_up t ~lo ~size test k base (t.masks.(k).(w) lsr b0) b0

and bits_up t ~lo ~size test k base rest b =
  if rest = 0 then -1
  else begin
    let skip = Bits.ntz32 rest in
    let bb = b + skip in
    let c = base lor bb in
    let r =
      if k = 0 then begin
        let gl = Chunked.get t.gap_len c in
        if gl >= size then test c gl else -1
      end
      else if t.maxl.(k - 1).(c) >= size then
        scan_up t ~lo ~size test (k - 1) c
      else -1
    in
    if r <> -1 then r
    else bits_up t ~lo ~size test k base (rest lsr (skip + 1)) (bb + 1)
  end

(* Visit the gaps of length >= size with start >= lo in ascending start
   order, pruning whole subtrees on the max-length augmentation.
   [test start len] returns -1 to continue, any other value to stop the
   scan with that result; the scan returns -1 when exhausted. *)
let search_up t ~lo ~size test =
  let lo = max lo 0 in
  if lo >= t.cap || root_max t < size then -1
  else scan_up t ~lo ~size test (t.nlevels - 1) 0

let rec scan_down t ~hi ~size test k w =
  let base = w lsl 5 in
  let chi = hi lsr (5 * k) in
  let bhi = if chi >= base + 31 then 31 else chi - base in
  if bhi < 0 then -1
  else
    bits_down t ~hi ~size test k base
      (t.masks.(k).(w) land ((1 lsl (bhi + 1)) - 1))

and bits_down t ~hi ~size test k base rest =
  if rest = 0 then -1
  else begin
    let bb = Bits.msb32 rest in
    let c = base lor bb in
    let r =
      if k = 0 then begin
        let gl = Chunked.get t.gap_len c in
        if gl >= size then test c gl else -1
      end
      else if t.maxl.(k - 1).(c) >= size then
        scan_down t ~hi ~size test (k - 1) c
      else -1
    in
    if r <> -1 then r
    else bits_down t ~hi ~size test k base (rest land lnot (1 lsl bb))
  end

(* Same, descending start order over gaps with start <= hi. *)
let search_down t ~hi ~size test =
  let hi = min hi (t.cap - 1) in
  if hi < 0 || root_max t < size then -1
  else scan_down t ~hi ~size test (t.nlevels - 1) 0

(* The gap [(start, len)] below the frontier containing
   [addr, addr + len) entirely, if any; returns the start, with the
   length one O(1) array read away. *)
let containing_gap t ~addr ~len =
  if addr >= t.frontier then -1
  else begin
    let s = pred_start t addr in
    if s >= 0 && addr + len <= s + Chunked.get t.gap_len s then s else -1
  end

let is_free t ~addr ~len =
  if len = 0 then true
  else if addr + len > t.frontier then addr >= t.frontier
  else containing_gap t ~addr ~len >= 0

(* [epoch] stays put only for an occupy starting exactly at the
   frontier: pure tail growth leaves the gap set, and every word below
   the old frontier, as they were. Anything else may change a gap. *)
let occupy t ~addr ~len =
  if len <= 0 then invalid_arg "Free_index.occupy: non-positive length";
  if addr <> t.frontier then t.epoch <- t.epoch + 1;
  if addr >= t.frontier then begin
    (* Carve from the tail, leaving a gap between the old frontier and
       the new allocation when they are not adjacent. *)
    if addr > t.frontier then add_gap t t.frontier (addr - t.frontier);
    t.frontier <- addr + len
  end
  else begin
    match containing_gap t ~addr ~len with
    | -1 -> invalid_arg "Free_index.occupy: extent not free"
    | s ->
        let l = Chunked.get t.gap_len s in
        remove_gap t s;
        if addr > s then add_gap t s (addr - s);
        if addr + len < s + l then add_gap t (addr + len) (s + l - addr - len)
  end

(* Mark [addr, addr + len) free again, coalescing with neighbouring
   gaps and with the tail. Both overlap checks run before any mutation
   so a rejected release leaves the index untouched; the predecessor
   check covers a gap starting exactly at [addr] (s = addr gives
   s + l > addr), which must be rejected, not coalesced. *)
let release t ~addr ~len =
  if len <= 0 then invalid_arg "Free_index.release: non-positive length";
  if addr + len > t.frontier then
    invalid_arg "Free_index.release: extent beyond frontier";
  t.epoch <- t.epoch + 1;
  let coalesce_left =
    let p = pred_start t addr in
    if p < 0 then -1
    else begin
      let stop = p + Chunked.get t.gap_len p in
      if stop > addr then invalid_arg "Free_index.release: extent already free"
      else if stop = addr then p
      else -1
    end
  in
  let coalesce_right =
    (* Any gap starting inside the extent means part of it is already
       free; a gap starting exactly at its end coalesces. *)
    let s = succ_start t (addr + 1) in
    if s < 0 then -1
    else if s < addr + len then
      invalid_arg "Free_index.release: extent already free"
    else if s = addr + len then s
    else -1
  in
  (* The merged gap runs from the left neighbour's start (which ends
     exactly at [addr]) through the right neighbour's end. *)
  let start = if coalesce_left >= 0 then coalesce_left else addr in
  let right_len =
    if coalesce_right >= 0 then Chunked.get t.gap_len coalesce_right else 0
  in
  let length = addr + len + right_len - start in
  if coalesce_left >= 0 then remove_gap t coalesce_left;
  if coalesce_right >= 0 then remove_gap t coalesce_right;
  if start + length = t.frontier then t.frontier <- start
  else add_gap t start length

(* Telemetry: every placement query is one "search"; the number of
   gaps alive when it runs bounds the probe work (exact for best/worst
   fit, which scan all gaps; an upper bound for the first-fit family).
   The per-gap distribution is only sampled at the [Full] level. *)
module T = Pc_telemetry

let searches_c = T.Registry.counter "free_index.searches"
let gaps_h = T.Registry.histogram "free_index.gaps_at_search"

let observe_search t =
  if !T.Sink.active then begin
    T.Counter.incr searches_c;
    if !T.Sink.full_active then T.Histogram.observe gaps_h t.gap_count
  end

let first_fit t ~size =
  observe_search t;
  match search_up t ~lo:0 ~size (fun s _ -> s) with
  | -1 -> Tail t.frontier
  | s -> Gap s

let first_fit_from t ~from ~size =
  observe_search t;
  (* A gap starting before [from] may still contain [from, from+size):
     check the predecessor explicitly, then search starts >= from. *)
  let p = pred_start t from in
  if p >= 0 && p < from && p + Chunked.get t.gap_len p >= from + size then
    Some from
  else begin
    match search_up t ~lo:from ~size (fun s _ -> s) with
    | -1 -> None
    | s -> Some s
  end

(* Reference best fit is the lexicographically least (len, start) with
   len >= size: first the smallest sufficient length present (from the
   length bitset), then the leftmost gap of exactly that length. The
   left-to-right scan may pass longer gaps — it prunes on max length,
   not exact length — so this is O(gaps) worst case, but best-fit
   placement is only exercised by the niche best-fit/TLSF managers at
   small scales. *)
let best_fit_gap t ~size =
  observe_search t;
  let l = Bitset.succ t.lens (max size 0) in
  if l < 0 then None
  else begin
    match search_up t ~lo:0 ~size:l (fun s gl -> if gl = l then s else -1) with
    | -1 -> None
    | s -> Some s
  end

(* Largest length, ties by largest start: every gap the descending scan
   visits already has the maximal length, so the first hit wins. *)
let worst_fit_gap t ~size =
  observe_search t;
  let lmax = root_max t in
  if lmax = 0 || lmax < size then None
  else begin
    match
      search_down t ~hi:(t.cap - 1) ~size:lmax (fun s gl ->
          if gl = lmax then s else -1)
    with
    | -1 -> None
    | s -> Some s
  end

let aligned_test ~size ~align s l =
  let a = Word.align_up s ~align in
  if a + size <= s + l then a else -1

let first_aligned_fit t ~size ~align =
  observe_search t;
  match search_up t ~lo:0 ~size (aligned_test ~size ~align) with
  | -1 -> Tail (Word.align_up t.frontier ~align)
  | a -> Gap a

(* Lowest aligned address >= from where [size] words fit inside an
   existing gap; the gap containing [from] itself is also considered. *)
let first_aligned_fit_from t ~from ~size ~align =
  observe_search t;
  let in_pred =
    let p = pred_start t from in
    if p >= 0 && p < from then begin
      let a = Word.align_up from ~align in
      if a + size <= p + Chunked.get t.gap_len p then a else -1
    end
    else -1
  in
  if in_pred >= 0 then Some in_pred
  else begin
    match search_up t ~lo:from ~size (aligned_test ~size ~align) with
    | -1 -> None
    | a -> Some a
  end

let iter_gaps t f =
  ignore
    (search_up t ~lo:0 ~size:1 (fun s l ->
         f s l;
         -1))

(* Count of gaps of exactly length [l]. *)
let[@inline] len_count t l =
  if l < small_len_limit then t.len_small.(l)
  else match Hashtbl.find_opt t.len_big l with Some c -> c | None -> 0

(* The k largest gaps as (len, start) lexicographically descending,
   through the per-length index: find the k-th largest present gap
   length L* by walking the distinct lengths downward through [lens],
   collect the (fewer than k) gaps strictly longer than L* in one
   maxl-pruned descending address sweep and insertion-sort them by
   their (len, start) keys, then stream gaps of length exactly L* in
   descending start order until k gaps are out. Cost is
   O(distinct lengths + k * log32 cap) per call. *)
let top_k t h k f =
  let kk = min k t.gap_count in
  let lstar = ref (root_max t) and krem = ref kk in
  Bitset.rev_iter_while t.lens ~from:(root_max t) (fun l ->
      let c = len_count t l in
      if c >= !krem then begin
        lstar := l;
        false
      end
      else begin
        krem := !krem - c;
        true
      end);
  let lstar = !lstar and krem = !krem in
  let n_above = kk - krem in
  if Array.length h.key_len < n_above then begin
    h.key_len <- Array.make (max 64 n_above) 0;
    h.key_start <- Array.make (max 64 n_above) 0
  end;
  let lens = h.key_len and starts = h.key_start in
  let n = ref 0 in
  if n_above > 0 then
    ignore
      (search_down t ~hi:(t.cap - 1) ~size:(lstar + 1) (fun s gl ->
           let i = ref !n in
           while
             !i > 0
             &&
             let li = Array.unsafe_get lens (!i - 1) in
             li < gl || (li = gl && Array.unsafe_get starts (!i - 1) < s)
           do
             Array.unsafe_set lens !i (Array.unsafe_get lens (!i - 1));
             Array.unsafe_set starts !i (Array.unsafe_get starts (!i - 1));
             decr i
           done;
           Array.unsafe_set lens !i gl;
           Array.unsafe_set starts !i s;
           incr n;
           -1));
  for i = 0 to !n - 1 do
    f (Array.unsafe_get starts i) (Array.unsafe_get lens i)
  done;
  if krem > 0 then begin
    let left = ref krem in
    ignore
      (search_down t ~hi:(t.cap - 1) ~size:lstar (fun s gl ->
           if gl = lstar then begin
             f s lstar;
             decr left;
             if !left = 0 then s else -1
           end
           else -1))
  end

(* The eviction machinery calls this on every heap-growing allocation,
   so the common case must be cheap. *)
let iter_largest_gaps t ~k f =
  if k > 0 && t.gap_count > 0 then begin
    (* Reuse the scratch unless a callback re-enters on the same
       index, in which case the inner call gets fresh arrays. *)
    let reused = not t.keys_busy in
    let h = if reused then t.keys else keys_make () in
    if reused then t.keys_busy <- true;
    match top_k t h k f with
    | () -> if reused then t.keys_busy <- false
    | exception e ->
        if reused then t.keys_busy <- false;
        raise e
  end

let largest_gaps t ~k =
  let acc = ref [] in
  iter_largest_gaps t ~k (fun start len -> acc := (start, len) :: !acc);
  List.rev !acc

let check_invariants t =
  let prev_stop = ref (-1) and n = ref 0 and tot = ref 0 in
  let counts = Hashtbl.create 16 in
  iter_gaps t (fun s l ->
      if l <= 0 then failwith "Free_index: empty gap";
      if s <= !prev_stop then failwith "Free_index: touching/overlapping gaps";
      prev_stop := s + l;
      if s + l >= t.frontier then failwith "Free_index: gap touches frontier";
      incr n;
      tot := !tot + l;
      Hashtbl.replace counts l
        (1 + Option.value (Hashtbl.find_opt counts l) ~default:0));
  if !n <> t.gap_count then failwith "Free_index: index cardinality mismatch";
  if !tot <> t.free_total then failwith "Free_index: free total drift";
  (* the per-length counts and the length bitset agree with the gaps *)
  Hashtbl.iter
    (fun l c ->
      let stored =
        if l < small_len_limit then t.len_small.(l)
        else Option.value (Hashtbl.find_opt t.len_big l) ~default:0
      in
      if stored <> c then failwith "Free_index: length count drift";
      if not (Bitset.mem t.lens l) then
        failwith "Free_index: length missing from length set")
    counts;
  Bitset.iter t.lens (fun l ->
      if not (Hashtbl.mem counts l) then failwith "Free_index: stale length bit");
  (* every mask bit reflects a non-empty child and every max matches *)
  for k = 0 to t.nlevels - 1 do
    for w = 0 to Array.length t.masks.(k) - 1 do
      let m = ref 0 in
      for b = 0 to 31 do
        let c = (w lsl 5) lor b in
        let bit = t.masks.(k).(w) land (1 lsl b) <> 0 in
        let present, v =
          if k = 0 then
            let l = Chunked.get t.gap_len c in
            (l > 0, l)
          else if c < Array.length t.masks.(k - 1) then
            (t.masks.(k - 1).(c) <> 0, t.maxl.(k - 1).(c))
          else (false, 0)
        in
        if bit <> present then failwith "Free_index: radix bitmap drift";
        if present && v > !m then m := v
      done;
      if t.maxl.(k).(w) <> !m then
        failwith "Free_index: max-length augmentation drift"
    done
  done
