open Pc_heap

(* "Compaction seldom": a first-fit allocator that slide-compacts the
   whole heap to address 0 whenever cumulative allocation has grown by
   [period] x M since the last compaction and the budget affords the
   full slide. This is the other strategy the paper's introduction
   attributes to production runtimes (full compaction, infrequently),
   complementing the on-demand partial eviction of [Compacting]. *)

let make ?(period = 2.0) () =
  let alloc last_compaction ctx ~size =
    let heap = Ctx.heap ctx in
    let threshold =
      int_of_float (period *. float (Ctx.live_bound ctx))
    in
    if
      Heap.allocated_total heap - !last_compaction >= threshold
      && Heap.can_move heap (Heap.live_words heap)
    then begin
      let cursor = ref 0 in
      Heap.iter_live heap (fun o ->
          if o.addr <> !cursor then Heap.move heap o.oid ~dst:!cursor;
          cursor := !cursor + o.size);
      last_compaction := Heap.allocated_total heap
    end;
    match Free_index.first_fit (Ctx.free_index ctx) ~size with
    | Free_index.Gap a | Free_index.Tail a -> a
  in
  Manager.stateful ~name:"sliding"
    ~description:
      "c-partial; first fit with periodic full sliding compaction \
       (compaction-seldom strategy)"
    ~init:(fun _ -> ref 0)
    alloc
