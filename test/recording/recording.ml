open Pc_heap
open Pc_manager

(* [inner] behind a wrapper that starts appending the run's heap events
   to [trace] on the run's first request, an allocation, which precedes
   every heap event of the run. *)
let manager trace inner =
  Manager.stateful ~name:(Manager.name inner)
    ~description:(Manager.description inner)
    ~init:(fun ctx -> Trace.record trace (Ctx.heap ctx))
    ~on_free:(fun () -> Manager.on_free inner)
    (fun () -> Manager.alloc inner)
