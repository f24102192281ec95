open Pc_heap
open Pc_manager

(* [inner] behind a wrapper that starts appending the run's heap events
   to [trace] on its first allocation request, which precedes every
   heap event of the run. *)
let manager trace inner =
  let started = ref false in
  Manager.make ~name:(Manager.name inner)
    ~description:(Manager.description inner)
    ~on_free:(Manager.on_free inner)
    (fun ctx ~size ->
      if not !started then begin
        started := true;
        Trace.record trace (Ctx.heap ctx)
      end;
      Manager.alloc inner ctx ~size)
