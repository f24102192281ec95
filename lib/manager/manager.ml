open Pc_heap

(* A memory manager is a placement policy: given the context and a
   request size it chooses the address for the new object, possibly
   moving live objects first (through Heap.move, which charges the
   budget). The runner performs the actual Heap.alloc at the returned
   address, so a manager cannot forget to allocate. *)

type t = {
  name : string;
  description : string;
  alloc : Ctx.t -> size:int -> int;
  on_free : Ctx.t -> Heap.obj -> unit;
}

let no_free_hook _ _ = ()

let make ~name ?(description = "") ?(on_free = no_free_hook) alloc =
  { name; description; alloc; on_free }

(* The state of the execution the last request came from. A context
   lives for one execution, so a request with another context starts
   a new one: the state cannot leak from one execution into the next,
   whoever runs them. *)
let stateful ~name ?description ~init ?on_free alloc =
  let current = ref None in
  let state ctx =
    match !current with
    | Some (ctx', s) when ctx' == ctx -> s
    | _ ->
        let s = init ctx in
        current := Some (ctx, s);
        s
  in
  let on_free = Option.map (fun f ctx o -> f (state ctx) ctx o) on_free in
  make ~name ?description ?on_free (fun ctx ~size ->
      alloc (state ctx) ctx ~size)

let name t = t.name
let description t = t.description
let alloc t ctx ~size = t.alloc ctx ~size
let on_free t ctx obj = t.on_free ctx obj
let pp ppf t = Fmt.string ppf t.name
