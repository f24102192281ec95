(* Types shared by the heap kernel and the reference, and re-exported
   by [Heap]: the live-object record, the fit result and the event
   stream, plus their printers. Kept in their own module so [Heap],
   [Heap_ref], [Free_index] and [Free_index_ref] can share them without
   a dependency cycle. *)

type obj = { oid : Oid.t; addr : int; size : int }

type fit = Gap of int | Tail of int

type event =
  | Alloc of obj
  | Free of obj
  | Move of { oid : Oid.t; size : int; src : int; dst : int }

let pp_obj ppf (o : obj) =
  Fmt.pf ppf "%a@@[%d,%d)" Oid.pp o.oid o.addr (o.addr + o.size)

let pp_event ppf = function
  | Alloc o -> Fmt.pf ppf "alloc %a" pp_obj o
  | Free o -> Fmt.pf ppf "free %a" pp_obj o
  | Move m ->
      Fmt.pf ppf "move %a %d -> %d (%d words)" Oid.pp m.oid m.src m.dst m.size
