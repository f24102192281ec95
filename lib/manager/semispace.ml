open Pc_heap

(* A semispace copying collector, modelled as a c-partial manager.
   The paper notes its bound applies "even when applying sophisticated
   methods like copying collection" — this manager makes that concrete.

   Two spaces of S words at [0, S) and [S, 2S). Allocation bumps in
   the from-space; when it would overflow, every live object is copied
   (in address order) to the to-space and the spaces swap. Copying the
   whole live set (<= M words) must fit the compaction budget, so the
   safe sizing is S = (c+1)M: a worst-case footprint of 2(c+1)M —
   twice the Bendersky-Petrank bump-and-compact arena. That factor of
   two is the classic price of copying collection, here visible
   against the (c+1)M baseline. With an unlimited budget S defaults
   to 2M.

   If a flip is ever unaffordable, allocation falls back to the global
   frontier (beyond both spaces) rather than violating the budget; a
   later affordable flip reclaims those objects too. *)

type state = { space : int; mutable base : int; mutable bump : int }

let make ?space_words () =
  let init ctx =
    let m = Ctx.live_bound ctx in
    let budget = Heap.budget (Ctx.heap ctx) in
    let space =
      match space_words with
      | Some s ->
          if s < m then invalid_arg "Semispace.make: space below M";
          s
      | None ->
          if Budget.is_unlimited budget then 2 * m
          else int_of_float ((Budget.c budget +. 1.0) *. float m)
    in
    { space; base = 0; bump = 0 }
  in
  let alloc st ctx ~size =
    let heap = Ctx.heap ctx in
    if st.bump + size <= st.base + st.space then begin
      let a = st.bump in
      st.bump <- st.bump + size;
      a
    end
    else if not (Heap.can_move heap (Heap.live_words heap)) then
      (* cannot afford the flip yet: overflow beyond both spaces *)
      max (Free_index.frontier (Ctx.free_index ctx)) (2 * st.space)
    else begin
      let to_base = if st.base = 0 then st.space else 0 in
      let cursor = ref to_base in
      Heap.iter_live heap (fun o ->
          Heap.move heap o.oid ~dst:!cursor;
          cursor := !cursor + o.size);
      st.base <- to_base;
      if !cursor + size > to_base + st.space then
        Fmt.failwith "semispace: live set exceeds a space (%d + %d > %d)"
          !cursor size (to_base + st.space);
      st.bump <- !cursor + size;
      !cursor
    end
  in
  Manager.stateful ~name:"semispace"
    ~description:
      "c-partial; two-space copying collector (flip when the from-space \
       fills, if the budget affords it)"
    ~init alloc
