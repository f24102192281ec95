(* The c-partial compaction budget of Section 2.1: once the program has
   allocated s words in total, the manager may have moved at most s/c
   words in total. Allocation therefore "recharges" the budget and
   moves drain it. The totals themselves are the heap's ledger
   ([Heap.allocated_total], [Heap.moved_total]); a budget is only the
   rule over them. *)

type t = { c : float }

exception Exceeded of { requested : int; available : int }

let create ~c =
  if c <= 1.0 then invalid_arg "Budget.create: need c > 1";
  { c }

(* [unlimited] bypasses the c > 1 check on purpose: it models a manager
   with no compaction bound (full compaction allowed). *)
let unlimited () = { c = 1.0 }

let is_unlimited t = t.c <= 1.0
let c t = t.c

let quota t ~allocated =
  if is_unlimited t then max_int else int_of_float (float allocated /. t.c)

let available t ~allocated ~moved =
  if is_unlimited t then max_int else quota t ~allocated - moved
