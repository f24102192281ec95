open Pc_heap

(* The size-class page grid of the slab family. Each page is
   dedicated to one power-of-two size class and sliced into equal
   slots; objects occupy the head of a slot, and slot padding is
   reserved by page ownership, not handed to other classes. A class
   keeps its pages with a free slot in [avail] and always fills the
   lowest-addressed one first. *)

module Int_map = Map.Make (Int)

type page = {
  base : int;
  class_ : int;
  slots : Bytes.t;
  mutable used : int;
}

let slot_size class_ = Word.pow2 class_

let page ~base ~class_ ~slots =
  { base; class_; slots = Bytes.make slots '\000'; used = 0 }

let is_full p = p.used = Bytes.length p.slots

let find_free_slot p =
  match Bytes.index p.slots '\000' with
  | i -> i
  | exception Not_found -> invalid_arg "Pages: no free slot in page"

let set_slot p i =
  Bytes.set p.slots i '\001';
  p.used <- p.used + 1

let clear_slot p i =
  Bytes.get p.slots i = '\001'
  && begin
       Bytes.set p.slots i '\000';
       p.used <- p.used - 1;
       true
     end

type t = {
  page_words : int;
  mutable pages : page Int_map.t; (* base -> page *)
  avail : int Int_map.t array; (* class -> bases with a free slot *)
}

let max_class = 48

let create ~page_words =
  if not (Word.is_pow2 page_words) then
    invalid_arg "Pages.create: page size must be a power of two";
  {
    page_words;
    pages = Int_map.empty;
    avail = Array.make max_class Int_map.empty;
  }

let page_words g = g.page_words

(* [None] for a large object, which gets a span of whole pages. *)
let class_of_size g size =
  let c = Word.log2_ceil (max 1 size) in
  if slot_size c >= g.page_words then None else Some c

let add_avail g p =
  g.avail.(p.class_) <- Int_map.add p.base p.base g.avail.(p.class_)

let remove_avail g p =
  g.avail.(p.class_) <- Int_map.remove p.base g.avail.(p.class_)

let avail_count g class_ = Int_map.cardinal g.avail.(class_)

let lowest_avail g class_ =
  match Int_map.min_binding_opt g.avail.(class_) with
  | Some (_, base) -> Some (Int_map.find base g.pages)
  | None -> None

let highest_avail g class_ =
  match Int_map.max_binding_opt g.avail.(class_) with
  | Some (_, base) -> Some (Int_map.find base g.pages)
  | None -> None

let retire g p =
  remove_avail g p;
  g.pages <- Int_map.remove p.base g.pages

let occupy g p i =
  set_slot p i;
  if is_full p then remove_avail g p

let take_slot g p =
  let i = find_free_slot p in
  occupy g p i;
  p.base + (i * slot_size p.class_)

let vacate g p i =
  let was_full = is_full p in
  clear_slot p i
  && begin
       if was_full then add_avail g p;
       if p.used = 0 then begin
         retire g p;
         false
       end
       else true
     end

let release g (o : Heap.obj) =
  let base = Word.align_down o.addr ~align:g.page_words in
  match Int_map.find_opt base g.pages with
  | Some p as found ->
      if vacate g p ((o.addr - base) / slot_size p.class_) then found else None
  | None -> None

let fold f g acc = Int_map.fold (fun _ p acc -> f p acc) g.pages acc

(* Lowest free aligned span of [span] pages, or the aligned frontier. *)
let site g ctx ~span =
  Free_index.first_aligned_fit (Ctx.free_index ctx) ~size:(span * g.page_words)
    ~align:g.page_words

let alloc g ctx ~size ~at_tail =
  match class_of_size g size with
  | None -> (
      match site g ctx ~span:((size + g.page_words - 1) / g.page_words) with
      | Free_index.Gap a | Free_index.Tail a -> a)
  | Some class_ ->
      let p =
        match Int_map.min_binding_opt g.avail.(class_) with
        | Some (_, base) -> Int_map.find base g.pages
        | None ->
            let base =
              match site g ctx ~span:1 with
              | Free_index.Gap a -> a
              | Free_index.Tail tail -> at_tail ctx tail
            in
            let p =
              page ~base ~class_ ~slots:(g.page_words / slot_size class_)
            in
            g.pages <- Int_map.add base p g.pages;
            add_avail g p;
            p
      in
      take_slot g p
