(* Monotonic counters. The value is an [Atomic], so increments from
   several worker domains at once (the kernel's counters, the engine's
   per-job resolution mix under a parallel sweep) are never lost; the
   disabled path is still one load of [Sink.active] and an untaken
   branch. *)

type t = { name : string; value : int Atomic.t }

let v name = { name; value = Atomic.make 0 }
let name t = t.name
let value t = Atomic.get t.value
let[@inline] incr t = if !Sink.active then Atomic.incr t.value

let[@inline] add t n =
  if !Sink.active then ignore (Atomic.fetch_and_add t.value n : int)

let reset t = Atomic.set t.value 0
