(* The c-partial compaction budget of Section 2.1: once the program has
   allocated s words in total, the manager may have moved at most s/c
   words in total. Allocation therefore "recharges" the budget and
   moves drain it. *)

type t = { c : float; mutable allocated : int; mutable moved : int }

exception Exceeded of { requested : int; available : int }

let create ~c =
  if c <= 1.0 then invalid_arg "Budget.create: need c > 1";
  { c; allocated = 0; moved = 0 }

(* [unlimited] bypasses the c > 1 check on purpose: it models a manager
   with no compaction bound (full compaction allowed). *)
let unlimited () = { c = 1.0; allocated = 0; moved = 0 }

let is_unlimited t = t.c <= 1.0
let c t = t.c
let moved t = t.moved

let quota t =
  if is_unlimited t then max_int else int_of_float (float t.allocated /. t.c)

let available t = if is_unlimited t then max_int else quota t - t.moved
let can_move t words = words <= available t
let on_alloc t words = t.allocated <- t.allocated + words

let charge_move t words =
  if not (can_move t words) then
    raise (Exceeded { requested = words; available = available t });
  t.moved <- t.moved + words

let is_compliant t = is_unlimited t || t.moved <= quota t
