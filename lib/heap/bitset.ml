(* A growable hierarchical bitset over [0, cap): a 32-ary radix tree of
   bitmask words. Level 0 packs the members 32 per word; each higher
   level has one bit per word below, set iff that word is non-empty.
   Membership updates and ordered neighbour queries (succ/pred) run in
   O(levels) = O(log32 cap) word operations with no allocation: their
   level walks are top-level functions taking [t], not local closures
   over it (the heap kernel's hot paths lean on this; test_kernel_alloc
   pins it). *)

type t = {
  mutable nlevels : int;
  mutable cap : int; (* always 32^nlevels *)
  mutable levels : int array array;
      (* levels.(k) has cap / 32^(k+1) words; levels.(nlevels-1) has 1 *)
}

let level_len cap k = cap lsr (5 * (k + 1))

let create () =
  let nlevels = 2 in
  let cap = 1 lsl (5 * nlevels) in
  {
    nlevels;
    cap;
    levels = Array.init nlevels (fun k -> Array.make (level_len cap k) 0);
  }

let capacity t = t.cap

(* Grow so that [n] is an addressable index. Existing level arrays are
   prefixes of their grown versions; each new top level gets bit 0 set
   iff the old top word was non-empty. *)
let ensure t n =
  if n >= t.cap then begin
    let nlevels = ref t.nlevels in
    while n >= 1 lsl (5 * !nlevels) do
      incr nlevels
    done;
    let nlevels = !nlevels in
    let cap = 1 lsl (5 * nlevels) in
    let levels =
      Array.init nlevels (fun k ->
          let a = Array.make (level_len cap k) 0 in
          if k < t.nlevels then
            Array.blit t.levels.(k) 0 a 0 (Array.length t.levels.(k))
          else if k >= t.nlevels && t.levels.(t.nlevels - 1).(0) <> 0 then
            (* the old top word sits at index 0 of every new level *)
            a.(0) <- 1;
          a)
    in
    t.nlevels <- nlevels;
    t.cap <- cap;
    t.levels <- levels
  end

let mem t i =
  i >= 0 && i < t.cap
  && t.levels.(0).(i lsr 5) land (1 lsl (i land 31)) <> 0

let rec add_up t k idx =
  if k < t.nlevels then begin
    let w = idx lsr 5 and b = idx land 31 in
    let a = t.levels.(k) in
    let old = a.(w) in
    a.(w) <- old lor (1 lsl b);
    if old = 0 then add_up t (k + 1) w
  end

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative index";
  ensure t i;
  add_up t 0 i

let rec remove_up t k idx =
  if k < t.nlevels then begin
    let w = idx lsr 5 and b = idx land 31 in
    let a = t.levels.(k) in
    let nw = a.(w) land lnot (1 lsl b) in
    a.(w) <- nw;
    if nw = 0 then remove_up t (k + 1) w
  end

let remove t i = if i >= 0 && i < t.cap then remove_up t 0 i

(* Leftmost member under node [w] of level [k] (which must be
   non-empty). *)
let rec descend_min t k w =
  let c = (w lsl 5) lor Bits.ntz32 t.levels.(k).(w) in
  if k = 0 then c else descend_min t (k - 1) c

let rec descend_max t k w =
  let c = (w lsl 5) lor Bits.msb32 t.levels.(k).(w) in
  if k = 0 then c else descend_max t (k - 1) c

(* Climb from [idx] at level [k] to the first word holding a member
   at or after it, then descend to the leftmost member below. *)
let rec succ_up t k idx =
  if k >= t.nlevels then -1
  else if idx >= t.cap lsr (5 * k) then -1
  else begin
    let w = idx lsr 5 and b = idx land 31 in
    let rest = t.levels.(k).(w) lsr b in
    if rest <> 0 then begin
      let c = (w lsl 5) lor (b + Bits.ntz32 rest) in
      if k = 0 then c else descend_min t (k - 1) c
    end
    else succ_up t (k + 1) (w + 1)
  end

(* Least member >= i, or -1. *)
let succ t i =
  let i = max i 0 in
  if i >= t.cap then -1 else succ_up t 0 i

let rec pred_up t k idx =
  if k >= t.nlevels || idx < 0 then -1
  else begin
    let w = idx lsr 5 and b = idx land 31 in
    let below = t.levels.(k).(w) land ((1 lsl (b + 1)) - 1) in
    if below <> 0 then begin
      let c = (w lsl 5) lor Bits.msb32 below in
      if k = 0 then c else descend_max t (k - 1) c
    end
    else if w = 0 then -1
    else pred_up t (k + 1) (w - 1)
  end

(* Greatest member <= i, or -1. *)
let pred t i =
  let i = min i (t.cap - 1) in
  if i < 0 then -1 else pred_up t 0 i

(* Descending traversal with early exit: visit members [<= from] in
   decreasing order while [f] keeps returning [true]. One pruned radix
   walk, unlike a [pred] loop which restarts from the root per member. *)
let rev_iter_while t ~from f =
  let hi = min from (t.cap - 1) in
  if hi >= 0 then begin
    let rec scan k w =
      let base = w lsl 5 in
      let chi = hi lsr (5 * k) in
      let bhi = if chi >= base + 31 then 31 else chi - base in
      if bhi < 0 then true
      else bits k base (t.levels.(k).(w) land ((1 lsl (bhi + 1)) - 1))
    and bits k base rest =
      if rest = 0 then true
      else begin
        let b = Bits.msb32 rest in
        let c = base lor b in
        let cont = if k = 0 then f c else scan (k - 1) c in
        if cont then bits k base (rest land lnot (1 lsl b)) else false
      end
    in
    ignore (scan (t.nlevels - 1) 0 : bool)
  end

let is_empty t = t.levels.(t.nlevels - 1).(0) = 0

(* Ascending iteration via repeated [succ]: amortised O(1) per member
   within a word, O(levels) across word boundaries. *)
let iter_from t i f =
  let rec go i =
    let j = succ t i in
    if j >= 0 then begin
      f j;
      go (j + 1)
    end
  in
  go i

let iter t f = iter_from t 0 f
