(* Monotonic counters: plain mutable ints, so the disabled path is one
   load and an untaken branch. The engine folds its per-sweep totals
   (jobs, retries, failures) in on the main domain after the pool
   drains; an instrument bumped from several worker domains at once
   (the kernel's, the engine's per-job resolution mix) can lose an
   increment, so its count under a parallel sweep is approximate. *)

type t = { name : string; mutable value : int }

let v name = { name; value = 0 }
let name t = t.name
let value t = t.value
let[@inline] incr t = if !Sink.active then t.value <- t.value + 1
let[@inline] add t n = if !Sink.active then t.value <- t.value + n

(* [set] is for folding externally-maintained totals (the engine's
   atomics) into a counter at snapshot time. *)
let set t n = if !Sink.active then t.value <- n
let reset t = t.value <- 0
