open Pc_heap

(* Next fit: first fit resuming from a roving pointer left after the
   previous allocation, wrapping around to the bottom of the heap. *)

let make () =
  let alloc rover ctx ~size =
    let free = Ctx.free_index ctx in
    let addr =
      match Free_index.first_fit_from free ~from:!rover ~size with
      | Some a -> a
      | None -> (
          match Free_index.first_fit_gap free ~size with
          | Some a -> a
          | None -> Free_index.frontier free)
    in
    rover := addr + size;
    addr
  in
  Manager.stateful ~name:"next-fit"
    ~description:"non-moving; first fit from a roving pointer"
    ~init:(fun _ -> ref 0)
    alloc
