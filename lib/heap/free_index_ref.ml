(* Index of the free space of a conceptually unbounded heap [0, ∞).
   The space splits into a finite set of maximal gaps below the
   [frontier] plus an infinite free tail at [frontier, ∞). Invariant:
   no gap touches the frontier (such a gap is merged into the tail by
   retracting the frontier), and no two gaps touch each other. *)

module Len_order = struct
  type t = int * int (* len, start *)

  let compare (l1, s1) (l2, s2) =
    match Int.compare l1 l2 with 0 -> Int.compare s1 s2 | c -> c
end

module Len_set = Set.Make (Len_order)

type t = {
  mutable gaps : Gap_tree.t;
  mutable by_len : Len_set.t;
  mutable frontier : int;
}

type fit = Heap_types.fit = Gap of int | Tail of int

let create () = { gaps = Gap_tree.empty; by_len = Len_set.empty; frontier = 0 }
let frontier t = t.frontier
let gap_count t = Gap_tree.count t.gaps
let free_below_frontier t = Gap_tree.total t.gaps
let largest_gap t = Gap_tree.max_len t.gaps

let add_gap t start len =
  t.gaps <- Gap_tree.add t.gaps ~start ~len;
  t.by_len <- Len_set.add (len, start) t.by_len

let remove_gap t start len =
  t.gaps <- Gap_tree.remove t.gaps ~start;
  t.by_len <- Len_set.remove (len, start) t.by_len

(* The gap [(start, len)] below the frontier containing
   [addr, addr + len) entirely, if any. Returning the extent (not just
   the start) saves callers a second tree lookup. *)
let containing_gap t ~addr ~len =
  if addr >= t.frontier then None
  else begin
    match Gap_tree.pred t.gaps ~addr with
    | Some (s, l) when addr + len <= s + l -> Some (s, l)
    | Some _ | None -> None
  end

(* The gap (or tail) containing [addr, addr + len), if entirely free. *)
let containing t ~addr ~len =
  if addr >= t.frontier then Some (Tail t.frontier)
  else begin
    match containing_gap t ~addr ~len with
    | Some (s, _) -> Some (Gap s)
    | None -> None
  end

let is_free t ~addr ~len =
  if len = 0 then true
  else if addr + len > t.frontier then addr >= t.frontier
  else Option.is_some (containing t ~addr ~len)

(* Mark [addr, addr + len) occupied. The extent must be entirely free. *)
let occupy t ~addr ~len =
  if len <= 0 then invalid_arg "Free_index.occupy: non-positive length";
  if addr >= t.frontier then begin
    (* Carve from the tail, leaving a gap between the old frontier and
       the new allocation when they are not adjacent. *)
    if addr > t.frontier then add_gap t t.frontier (addr - t.frontier);
    t.frontier <- addr + len
  end
  else begin
    match containing_gap t ~addr ~len with
    | None -> invalid_arg "Free_index.occupy: extent not free"
    | Some (s, l) ->
        remove_gap t s l;
        if addr > s then add_gap t s (addr - s);
        if addr + len < s + l then add_gap t (addr + len) (s + l - addr - len)
  end

(* Mark [addr, addr + len) free again, coalescing with neighbouring
   gaps and with the tail. Both overlap checks run before any mutation
   so a rejected release leaves the index untouched. Note the
   predecessor check covers a gap starting exactly at [addr]
   (s = addr gives s + l > addr), which must be rejected, not
   coalesced. *)
let release t ~addr ~len =
  if len <= 0 then invalid_arg "Free_index.release: non-positive length";
  if addr + len > t.frontier then
    invalid_arg "Free_index.release: extent beyond frontier";
  let coalesce_left =
    match Gap_tree.pred t.gaps ~addr with
    | Some (s, l) when s + l > addr ->
        invalid_arg "Free_index.release: extent already free"
    | Some (s, l) when s + l = addr -> Some (s, l)
    | Some _ | None -> None
  in
  let coalesce_right =
    (* Any gap starting inside the extent means part of it is already
       free; a gap starting exactly at its end coalesces. *)
    match Gap_tree.succ t.gaps ~addr:(addr + 1) with
    | Some (s, _) when s < addr + len ->
        invalid_arg "Free_index.release: extent already free"
    | Some (s, l) when s = addr + len -> Some (s, l)
    | Some _ | None -> None
  in
  let start, length =
    match coalesce_left with
    | Some (s, l) ->
        remove_gap t s l;
        (s, l + len)
    | None -> (addr, len)
  in
  let start, length =
    match coalesce_right with
    | Some (s, l) ->
        remove_gap t s l;
        (start, length + l)
    | None -> (start, length)
  in
  if start + length = t.frontier then t.frontier <- start
  else add_gap t start length

let first_fit t ~size =
  match Gap_tree.first_fit t.gaps ~size with
  | Some (s, _) -> Gap s
  | None -> Tail t.frontier

let first_fit_from t ~from ~size =
  (* A gap starting before [from] may still contain [from, from+size):
     check the predecessor explicitly, then search starts >= from. *)
  let from_pred =
    match Gap_tree.pred t.gaps ~addr:from with
    | Some (s, l) when s < from && s + l >= from + size -> Some from
    | Some _ | None -> None
  in
  match from_pred with
  | Some _ as res -> res
  | None -> (
      match Gap_tree.first_fit_from t.gaps ~from ~size with
      | Some (s, _) -> Some s
      | None -> None)

let best_fit_gap t ~size =
  match Len_set.find_first_opt (fun (l, _) -> l >= size) t.by_len with
  | Some (_, s) -> Some s
  | None -> None

let worst_fit_gap t ~size =
  match Len_set.max_elt_opt t.by_len with
  | Some (l, s) when l >= size -> Some s
  | Some _ | None -> None

let first_aligned_fit t ~size ~align =
  match Gap_tree.first_aligned_fit t.gaps ~size ~align with
  | Some a -> Gap a
  | None -> Tail (Word.align_up t.frontier ~align)

(* Lowest aligned address >= from where [size] words fit inside an
   existing gap; the gap containing [from] itself is also considered. *)
let first_aligned_fit_from t ~from ~size ~align =
  let in_pred =
    match Gap_tree.pred t.gaps ~addr:from with
    | Some (s, l) when s < from ->
        let a = Word.align_up from ~align in
        if a + size <= s + l then Some a else None
    | Some _ | None -> None
  in
  match in_pred with
  | Some _ as res -> res
  | None -> Gap_tree.first_aligned_fit_from t.gaps ~from ~size ~align

let iter_gaps t f = Gap_tree.iter t.gaps f

(* The k largest gaps, longest first, straight off the by-length index
   — no per-gap tree lookups and, for [iter], no list. *)
let iter_largest_gaps t ~k f =
  let rec go n seq =
    if n > 0 then begin
      match Seq.uncons seq with
      | Some ((len, start), rest) ->
          f start len;
          go (n - 1) rest
      | None -> ()
    end
  in
  go k (Len_set.to_rev_seq t.by_len)

let largest_gaps t ~k =
  let acc = ref [] in
  iter_largest_gaps t ~k (fun start len -> acc := (start, len) :: !acc);
  List.rev !acc

let check_invariants t =
  if not (Gap_tree.check_balanced t.gaps) then
    failwith "Free_index: unbalanced gap tree";
  let prev_stop = ref (-1) in
  iter_gaps t (fun s l ->
      if l <= 0 then failwith "Free_index: empty gap";
      if s <= !prev_stop then failwith "Free_index: touching/overlapping gaps";
      prev_stop := s + l;
      if s + l >= t.frontier then failwith "Free_index: gap touches frontier");
  let by_len_count = Len_set.cardinal t.by_len in
  if by_len_count <> Gap_tree.count t.gaps then
    failwith "Free_index: index cardinality mismatch"
