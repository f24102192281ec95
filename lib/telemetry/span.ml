(* Nestable timed spans, aggregated per span value: count, inclusive
   total, self time (total minus nested spans) and the worst single
   interval. The nesting stack is domain-local (Domain.DLS) so worker
   domains of the sweep pool time their own jobs without interleaving
   frames. The aggregate cells of a span are written by whichever
   domain exits it, and several workers exit the same span (every job
   exits [runner.exec]), so each span's update holds its own mutex; a
   span closes once per job or per stage, so the lock is cheap.

   Robustness over precision: an [exit_] that does not match the top
   frame (telemetry enabled mid-span, or a caller bug) is dropped
   rather than corrupting the stack. *)

type t = {
  name : string;
  mutable count : int;
  mutable total : float; (* seconds, nested spans included *)
  mutable child : float; (* seconds attributed to nested spans *)
  mutable max : float; (* worst single interval *)
  lock : Mutex.t; (* guards the four cells above *)
}

type frame = { span : t; start : float; mutable child_acc : float }

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let v name =
  { name; count = 0; total = 0.0; child = 0.0; max = 0.0; lock = Mutex.create () }
let name t = t.name
let count t = t.count
let total t = t.total
let self t = Float.max 0.0 (t.total -. t.child)
let max_interval t = t.max

let enter span =
  if !Sink.active then begin
    let st = Domain.DLS.get stack_key in
    st := { span; start = Unix.gettimeofday (); child_acc = 0.0 } :: !st
  end

let exit_ span =
  if !Sink.active then begin
    let st = Domain.DLS.get stack_key in
    match !st with
    | frame :: rest when frame.span == span ->
        st := rest;
        let elapsed = Unix.gettimeofday () -. frame.start in
        Mutex.protect span.lock (fun () ->
            span.count <- span.count + 1;
            span.total <- span.total +. elapsed;
            span.child <- span.child +. frame.child_acc;
            if elapsed > span.max then span.max <- elapsed);
        (match rest with
        | parent :: _ -> parent.child_acc <- parent.child_acc +. elapsed
        | [] -> ())
    | _ -> ()
  end

let time span f =
  enter span;
  match f () with
  | x ->
      exit_ span;
      x
  | exception e ->
      exit_ span;
      raise e

let depth () = List.length !(Domain.DLS.get stack_key)

let reset t =
  Mutex.protect t.lock (fun () ->
      t.count <- 0;
      t.total <- 0.0;
      t.child <- 0.0;
      t.max <- 0.0)

let reset_stack () = Domain.DLS.get stack_key := []
