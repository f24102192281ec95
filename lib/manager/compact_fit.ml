open Pc_heap

(* Compact-fit (Craciunas, Kirsch, Payer, Röck, Sokolova; the
   allocator is analysed in arXiv 1404.1830): size-class pages with
   the *compact invariant* — each class keeps at most one partial
   (not-full) page; every other page is full. Allocation always goes
   to the class's partial page. A free in a full page breaks the
   invariant; Compact-fit repairs it by moving one object of the
   class's partial page into the hole — the scheme's constant-time
   incremental compaction.

   One adaptation to the paper's interaction model: the driver reports
   compaction moves to the program only while serving an allocation
   request (Section 2.1), so the plug is deferred — a free marks its
   class dirty and the repair moves run at the start of the next
   allocation, draining the class back to at most one partial page.
   The moves charge the c-partial budget like any other relocation;
   when the budget cannot pay, the class simply stays dirty until the
   budget recharges (the invariant lapses instead of the budget rule).

   The pages are the shared [Pages] grid; its available pages are the
   partial pages here. *)

let highest_used_slot (p : Pages.page) =
  match Bytes.rindex p.slots '\001' with
  | i -> i
  | exception Not_found ->
      invalid_arg "Compact_fit: no used slot in donor page"

(* Restore the compact invariant for one class: while two partial
   pages coexist, move the highest slot of the highest-addressed one
   into the lowest hole of the lowest-addressed one. Stops when the
   budget runs dry, leaving the class dirty for a later attempt. *)
let repair grid dirty ctx class_ =
  let heap = Ctx.heap ctx in
  let budget = Ctx.budget ctx in
  let slot_words = Pages.slot_size class_ in
  let dry = ref false in
  while (not !dry) && Pages.avail_count grid class_ > 1 do
    let src = Option.get (Pages.highest_avail grid class_) in
    let dst = Option.get (Pages.lowest_avail grid class_) in
    let j = highest_used_slot src in
    let migrant =
      match
        Heap.objects_in heap
          ~start:(src.base + (j * slot_words))
          ~stop:(src.base + ((j + 1) * slot_words))
      with
      | [ obj ] -> obj
      | _ -> invalid_arg "Compact_fit: donor slot out of sync"
    in
    if not (Budget.can_move budget migrant.size) then dry := true
    else begin
      Heap.move heap migrant.oid ~dst:(Pages.take_slot grid dst);
      ignore (Pages.vacate grid src j)
    end
  done;
  if Pages.avail_count grid class_ <= 1 then dirty.(class_) <- false

let make ?(page_words = 1 lsl 6) () =
  let grid = Pages.create ~page_words in
  let dirty = Array.make Pages.max_class false (* class -> > 1 partial *) in
  let alloc ctx ~size =
    for class_ = 0 to Pages.max_class - 1 do
      if dirty.(class_) then repair grid dirty ctx class_
    done;
    Pages.alloc grid ctx ~size ~at_tail:(fun _ tail -> tail)
  in
  let on_free _ctx o =
    match Pages.release grid o with
    | Some p when Pages.avail_count grid p.class_ > 1 ->
        dirty.(p.class_) <- true
    | _ -> ()
  in
  Manager.make ~name:"compact-fit"
    ~description:
      "c-partial; Compact-fit size-class pages: plug moves keep at most one \
       partial page per class"
    ~on_free alloc
