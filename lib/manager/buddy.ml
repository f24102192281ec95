open Pc_heap

(* Binary buddy placement: a request of size s reserves the whole block
   of size 2^k = round_up_pow2 s at a 2^k-aligned address, so the block
   can later coalesce with its buddy. The object occupies the first s
   words of the block; the padding stays reserved manager-side (never
   handed to another request) and dies with the object.

   The heap's free index sees the padding as free words, so placement
   must skip candidate windows overlapping a reservation. For programs
   in P2(M, n) — all the paper's adversaries — sizes are powers of two,
   the padding is empty, and this is the textbook buddy system. *)

module Int_map = Map.Make (Int)

type state = {
  mutable padding : int Int_map.t; (* padding start -> padding length *)
  by_base : (int, int) Hashtbl.t; (* block base -> padding start *)
}

let overlaps_padding state ~start ~stop =
  match Int_map.find_last_opt (fun s -> s < stop) state.padding with
  | Some (s, l) -> s + l > start
  | None -> false

let make () =
  let alloc state ctx ~size =
    let bs = Word.round_up_pow2 size in
    let free = Ctx.free_index ctx in
    let rec search from =
      match Free_index.first_aligned_fit_from free ~from ~size:bs ~align:bs with
      | Some a ->
          if overlaps_padding state ~start:a ~stop:(a + bs) then
            search (a + bs)
          else Some a
      | None -> None
    in
    let base =
      match search 0 with
      | Some a -> a
      | None ->
          (* The tail may still run through padding reservations (free
             words above the frontier belong to no gap); skip them. *)
          let rec clear a =
            if overlaps_padding state ~start:a ~stop:(a + bs) then
              clear (a + bs)
            else a
          in
          clear (Word.align_up (Free_index.frontier free) ~align:bs)
    in
    if bs > size then begin
      state.padding <- Int_map.add (base + size) (bs - size) state.padding;
      Hashtbl.replace state.by_base base (base + size)
    end;
    base
  in
  let on_free state _ctx (o : Heap.obj) =
    match Hashtbl.find_opt state.by_base o.addr with
    | Some pstart ->
        state.padding <- Int_map.remove pstart state.padding;
        Hashtbl.remove state.by_base o.addr
    | None -> ()
  in
  Manager.stateful ~name:"buddy"
    ~description:
      "non-moving; binary buddy: whole power-of-two blocks at \
       block-aligned addresses"
    ~init:(fun _ -> { padding = Int_map.empty; by_base = Hashtbl.create 64 })
    ~on_free alloc
