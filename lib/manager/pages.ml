open Pc_heap

(* The size-class page grid of the slab family. Each page is
   dedicated to one power-of-two size class and sliced into equal
   slots; objects occupy the head of a slot, and slot padding is
   reserved by page ownership, not handed to other classes. A class
   keeps its pages with a free slot in [avail] and always fills the
   lowest-addressed one first.

   Pages are found by page number ([base / page_words]) in a flat
   array, and each class's available pages are a bitset of page
   numbers with a count beside it, so lookups, the lowest and highest
   available page and their count are O(1) or a radix walk, never a
   pass over the pages. Each page also keeps a lower bound on its
   lowest free slot, so taking slots in order does not rescan the
   bitmap from slot 0. *)

type page = {
  base : int;
  class_ : int;
  slots : Bytes.t;
  mutable used : int;
  mutable hint : int; (* every slot below [hint] is occupied *)
}

let slot_size class_ = Word.pow2 class_

let page ~base ~class_ ~slots =
  { base; class_; slots = Bytes.make slots '\000'; used = 0; hint = 0 }

let is_full p = p.used = Bytes.length p.slots

let find_free_slot p =
  match Bytes.index_from p.slots p.hint '\000' with
  | i ->
      p.hint <- i;
      i
  | exception Not_found -> invalid_arg "Pages: no free slot in page"

let set_slot p i =
  Bytes.set p.slots i '\001';
  p.used <- p.used + 1;
  if i = p.hint then p.hint <- i + 1

let clear_slot p i =
  Bytes.get p.slots i = '\001'
  && begin
       Bytes.set p.slots i '\000';
       p.used <- p.used - 1;
       if i < p.hint then p.hint <- i;
       true
     end

type t = {
  page_words : int;
  mutable pages : page array; (* page number -> page, [none] if free *)
  avail : Bitset.t array; (* class -> page numbers with a free slot *)
  avail_n : int array; (* class -> their count *)
}

let max_class = 48
let none = page ~base:(-1) ~class_:0 ~slots:0

let create ~page_words =
  if not (Word.is_pow2 page_words) then
    invalid_arg "Pages.create: page size must be a power of two";
  {
    page_words;
    pages = [||];
    avail = Array.init max_class (fun _ -> Bitset.create ());
    avail_n = Array.make max_class 0;
  }

let page_words g = g.page_words
let[@inline] number g base = base / g.page_words

let[@inline] page_at g n =
  if n < Array.length g.pages then Array.unsafe_get g.pages n else none

let set_page g n p =
  if n >= Array.length g.pages then begin
    let pages = Array.make (max 64 (2 * n)) none in
    Array.blit g.pages 0 pages 0 (Array.length g.pages);
    g.pages <- pages
  end;
  g.pages.(n) <- p

(* [None] for a large object, which gets a span of whole pages. *)
let class_of_size g size =
  let c = Word.log2_ceil (max 1 size) in
  if slot_size c >= g.page_words then None else Some c

let add_avail g p =
  Bitset.add g.avail.(p.class_) (number g p.base);
  g.avail_n.(p.class_) <- g.avail_n.(p.class_) + 1

let remove_avail g p =
  let n = number g p.base in
  if Bitset.mem g.avail.(p.class_) n then begin
    Bitset.remove g.avail.(p.class_) n;
    g.avail_n.(p.class_) <- g.avail_n.(p.class_) - 1
  end

let avail_count g class_ = g.avail_n.(class_)

let avail_page g n = if n < 0 then None else Some (page_at g n)
let lowest_avail g class_ = avail_page g (Bitset.succ g.avail.(class_) 0)

let highest_avail g class_ =
  let set = g.avail.(class_) in
  avail_page g (Bitset.pred set (Bitset.capacity set - 1))

let retire g p =
  remove_avail g p;
  set_page g (number g p.base) none

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
  let p = page_at g (number g o.addr) in
  if p == none then None
  else if vacate g p ((o.addr - p.base) / slot_size p.class_) then Some p
  else None

let fold f g acc =
  let acc = ref acc in
  Array.iter (fun p -> if p != none then acc := f p !acc) g.pages;
  !acc

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
        match lowest_avail g class_ with
        | Some p -> p
        | None ->
            let base =
              match site g ctx ~span:1 with
              | Free_index.Gap a -> a
              | Free_index.Tail tail -> at_tail ctx tail
            in
            let p =
              page ~base ~class_ ~slots:(g.page_words / slot_size class_)
            in
            set_page g (number g base) p;
            add_avail g p;
            p
      in
      take_slot g p
