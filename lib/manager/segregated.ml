(* Segregated storage (slab-style): the heap is carved into fixed-size
   blocks on a block-aligned grid; each block is dedicated to one size
   class (powers of two) and sliced into equal slots. The grid itself
   is [Pages]; a fresh block that finds no free grid cell simply grows
   the heap. *)

let make ?(block_words = 1 lsl 10) () =
  Manager.stateful ~name:"segregated"
    ~description:
      "non-moving; slab-style segregated storage with power-of-two size \
       classes"
    ~init:(fun _ -> Pages.create ~page_words:block_words)
    ~on_free:(fun grid _ctx o -> ignore (Pages.release grid o))
    (fun grid ctx ~size ->
      Pages.alloc grid ctx ~size ~at_tail:(fun _ tail -> tail))
