open Pc_heap

(* The Bendersky-Petrank upper-bound manager (POPL 2011), quoted in
   Section 2.2: a c-partial manager that serves any program in P(M, n)
   within heap (c+1)*M.

   Strategy: bump allocation; when the bump pointer would cross the
   (c+1)*M limit, slide-compact every live object to the bottom of the
   heap and resume bumping above them. Correctness of the budget: the
   first compaction happens only after at least c*M words were
   allocated (live space is at most M, so at least (c+1)M - M words of
   the region were allocated... and each subsequent compaction after
   another c*M words), so the <= M words moved fit the s/c quota. *)

let make () =
  let alloc ctx ~size =
    let heap = Ctx.heap ctx in
    let free = Ctx.free_index ctx in
    let limit =
      let budget = Heap.budget heap in
      let m = Ctx.live_bound ctx in
      (* With an unlimited budget, compact whenever the arena would
         exceed 2M — the c -> 1 limit of the (c+1)M scheme. *)
      if Budget.is_unlimited budget then 2 * m
      else int_of_float (Float.of_int m *. (Budget.c budget +. 1.0))
    in
    let bump = Free_index.frontier free in
    if bump + size <= limit then bump
    else if not (Heap.can_move heap (Heap.live_words heap)) then
      bump (* degrade gracefully rather than break the c-partial rule *)
    else begin
      (* Slide every live object down, in address order; destinations
         never pass sources so each move lands in free space. *)
      let cursor = ref 0 in
      Heap.iter_live heap (fun o ->
          if o.addr <> !cursor then Heap.move heap o.oid ~dst:!cursor;
          cursor := !cursor + o.size);
      let bump = Free_index.frontier free in
      if bump + size > limit then
        Fmt.failwith
          "bp-simple: program exceeded its live bound (live=%d + %d > %d)"
          (Heap.live_words heap) size limit;
      bump
    end
  in
  Manager.make ~name:"bp-simple"
    ~description:
      "c-partial; Bendersky-Petrank bump allocation with full sliding \
       compaction inside a (c+1)M arena"
    alloc
