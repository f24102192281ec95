(* The iteration order of a stdlib [Hashtbl] over int keys, kept
   without the table.

   A table walk visits buckets [Hashtbl.hash k land (nb - 1)] in
   ascending order and, within a bucket, the newest binding first: a
   binding goes to the front of its bucket, and a resize appends each
   old chain, in order, to the buckets its bindings hash to, so every
   chain stays newest first. [Hashtbl.create n] starts with the least
   power of two [>= max 16 n] buckets, and an [add] doubles them once
   the count passes twice the bucket count. So a walk is one counting
   sort over the bindings in insertion order. *)

let rec power_2_above x n = if x >= n then x else power_2_above (2 * x) n
let created n = power_2_above 16 n
let grown ~count nb = if count > 2 * nb then 2 * nb else nb

(* Count the ranks per bucket, turn the counts into start slots, then
   place the ranks from [len - 1] down, so each bucket's run comes out
   newest first. *)
let sort ~nb ~count ~len hash =
  let mask = nb - 1 in
  let starts = Array.make nb 0 and order = Array.make count 0 in
  for r = 0 to len - 1 do
    let h = hash r in
    if h >= 0 then begin
      let b = h land mask in
      Array.unsafe_set starts b (Array.unsafe_get starts b + 1)
    end
  done;
  let next = ref 0 in
  for b = 0 to nb - 1 do
    let c = Array.unsafe_get starts b in
    Array.unsafe_set starts b !next;
    next := !next + c
  done;
  for r = len - 1 downto 0 do
    let h = hash r in
    if h >= 0 then begin
      let b = h land mask in
      let k = Array.unsafe_get starts b in
      order.(k) <- r;
      Array.unsafe_set starts b (k + 1)
    end
  done;
  order
