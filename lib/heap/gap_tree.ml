(* An AVL tree of disjoint free gaps keyed by start address, augmented
   with the maximum gap length per subtree. The augmentation makes
   address-ordered fit searches (first fit, aligned first fit) run in
   time proportional to the tree height instead of the gap count, which
   matters because the adversarial programs create heaps with hundreds
   of thousands of gaps. *)

type t =
  | Leaf
  | Node of {
      l : t;
      start : int;
      len : int;
      r : t;
      height : int;
      max_len : int; (* max gap length in this subtree *)
      count : int; (* number of gaps in this subtree *)
      total : int; (* total free words in this subtree *)
    }

let empty = Leaf
let height = function Leaf -> 0 | Node n -> n.height
let max_len = function Leaf -> 0 | Node n -> n.max_len
let count = function Leaf -> 0 | Node n -> n.count
let total = function Leaf -> 0 | Node n -> n.total

let node l start len r =
  Node
    {
      l;
      start;
      len;
      r;
      height = 1 + max (height l) (height r);
      max_len = max len (max (max_len l) (max_len r));
      count = 1 + count l + count r;
      total = len + total l + total r;
    }

(* Standard AVL rebalancing; [l] and [r] differ in height by at most 3
   (as produced by a single insertion or removal). *)
let rec balance l start len r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Leaf -> assert false
    | Node ln ->
        if height ln.l >= height ln.r then
          node ln.l ln.start ln.len (balance ln.r start len r)
        else begin
          match ln.r with
          | Leaf -> assert false
          | Node lrn ->
              node
                (node ln.l ln.start ln.len lrn.l)
                lrn.start lrn.len
                (node lrn.r start len r)
        end
  else if hr > hl + 1 then
    match r with
    | Leaf -> assert false
    | Node rn ->
        if height rn.r >= height rn.l then
          node (balance l start len rn.l) rn.start rn.len rn.r
        else begin
          match rn.l with
          | Leaf -> assert false
          | Node rln ->
              node
                (node l start len rln.l)
                rln.start rln.len
                (node rln.r rn.start rn.len rn.r)
        end
  else node l start len r

let rec add t ~start ~len =
  match t with
  | Leaf -> node Leaf start len Leaf
  | Node n ->
      if start < n.start then balance (add n.l ~start ~len) n.start n.len n.r
      else if start > n.start then
        balance n.l n.start n.len (add n.r ~start ~len)
      else invalid_arg "Gap_tree.add: duplicate gap start"

let rec min_binding = function
  | Leaf -> invalid_arg "Gap_tree.min_binding: empty"
  | Node { l = Leaf; start; len; _ } -> (start, len)
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Leaf -> invalid_arg "Gap_tree.remove_min: empty"
  | Node { l = Leaf; r; _ } -> r
  | Node { l; start; len; r; _ } -> balance (remove_min l) start len r

let rec remove t ~start =
  match t with
  | Leaf -> invalid_arg "Gap_tree.remove: gap not found"
  | Node n ->
      if start < n.start then balance (remove n.l ~start) n.start n.len n.r
      else if start > n.start then
        balance n.l n.start n.len (remove n.r ~start)
      else begin
        match n.r with
        | Leaf -> n.l
        | r ->
            let s, ln = min_binding r in
            balance n.l s ln (remove_min r)
      end

(* Greatest gap with start <= addr. *)
let rec pred t ~addr =
  match t with
  | Leaf -> None
  | Node n ->
      if addr < n.start then pred n.l ~addr
      else begin
        match pred n.r ~addr with
        | Some _ as res -> res
        | None -> Some (n.start, n.len)
      end

(* Least gap with start >= addr. *)
let rec succ t ~addr =
  match t with
  | Leaf -> None
  | Node n ->
      if addr > n.start then succ n.r ~addr
      else begin
        match succ n.l ~addr with
        | Some _ as res -> res
        | None -> Some (n.start, n.len)
      end

(* Lowest-addressed gap of length >= size: descend left first, pruning
   subtrees whose max_len is too small. *)
let rec first_fit t ~size =
  match t with
  | Leaf -> None
  | Node n ->
      if n.max_len < size then None
      else if max_len n.l >= size then first_fit n.l ~size
      else if n.len >= size then Some (n.start, n.len)
      else first_fit n.r ~size

(* Lowest-addressed gap with start >= from and length >= size. *)
let rec first_fit_from t ~from ~size =
  match t with
  | Leaf -> None
  | Node n ->
      if n.max_len < size then None
      else if n.start < from then first_fit_from n.r ~from ~size
      else begin
        match first_fit_from n.l ~from ~size with
        | Some _ as res -> res
        | None ->
            if n.len >= size then Some (n.start, n.len)
            else first_fit_from n.r ~from ~size
      end

(* Lowest aligned address [a] such that [a mod align = 0] and
   [a, a + size) lies within a single gap. Pruning on max_len keeps the
   visit count low: a gap is only visited if it could hold the object
   ignoring alignment. *)
let rec first_aligned_fit t ~size ~align =
  match t with
  | Leaf -> None
  | Node n ->
      if n.max_len < size then None
      else begin
        match first_aligned_fit n.l ~size ~align with
        | Some _ as res -> res
        | None ->
            if n.len >= size then begin
              let a = Word.align_up n.start ~align in
              if a + size <= n.start + n.len then Some a
              else first_aligned_fit n.r ~size ~align
            end
            else first_aligned_fit n.r ~size ~align
      end

(* Like [first_aligned_fit], restricted to gaps starting at or above
   [from]. *)
let rec first_aligned_fit_from t ~from ~size ~align =
  match t with
  | Leaf -> None
  | Node n ->
      if n.max_len < size then None
      else if n.start < from then first_aligned_fit_from n.r ~from ~size ~align
      else begin
        match first_aligned_fit_from n.l ~from ~size ~align with
        | Some _ as res -> res
        | None ->
            if n.len >= size then begin
              let a = Word.align_up n.start ~align in
              if a + size <= n.start + n.len then Some a
              else first_aligned_fit_from n.r ~from ~size ~align
            end
            else first_aligned_fit_from n.r ~from ~size ~align
      end

let rec iter t f =
  match t with
  | Leaf -> ()
  | Node n ->
      iter n.l f;
      f n.start n.len;
      iter n.r f

let rec check_balanced = function
  | Leaf -> true
  | Node n ->
      abs (height n.l - height n.r) <= 1
      && n.height = 1 + max (height n.l) (height n.r)
      && n.max_len = max n.len (max (max_len n.l) (max_len n.r))
      && n.count = 1 + count n.l + count n.r
      && n.total = n.len + total n.l + total n.r
      && check_balanced n.l && check_balanced n.r
