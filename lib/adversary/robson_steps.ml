(* The step engine of Robson's bad program P_R (Algorithm 2), in the
   ghost-hardened form used by stage 1 of P_F (Algorithm 1).

   Step 0 fills the live budget with unit objects. Step i picks the
   offset f_i in {f_(i-1), f_(i-1) + 2^(i-1)} that maximises the wasted
   space sum_{o f_i-occupying} (2^i - |o|) over live and ghost objects,
   frees every non-occupying object, and refills the budget with
   objects of size 2^i. Objects pinned at the f_i offsets prevent any
   two adjacent offset words from hosting a future object between
   them, which is what blows the heap up. *)

(* Does an object of [size] words at [addr] occupy a word congruent
   to [f] modulo 2^i? (Definition 4.2.) The modulus is a power of two,
   so the residue of [f - addr] is a mask away. *)
let[@inline] occupies ~f ~step addr size =
  let modulus = 1 lsl step in
  size >= modulus || (f - addr) land (modulus - 1) < size

(* The wasted-space objective of Algorithm 2 line 4 for offset
   candidate [f]. *)
let wasted_space view ~f ~step =
  let modulus = 1 lsl step in
  View.sum_present view (fun addr size ->
      if occupies ~f ~step addr size then modulus - size else 0)

(* One de-allocation + refill step. Returns the chosen offset. *)
let step view ~m ~prev_f ~step:i =
  let modulus = 1 lsl i in
  let f0 = prev_f and f1 = prev_f + (1 lsl (i - 1)) in
  (* wasted_space f1 - wasted_space f0, in one pass *)
  let gain =
    View.sum_present view (fun addr size ->
        let w = modulus - size in
        (if occupies ~f:f1 ~step:i addr size then w else 0)
        - if occupies ~f:f0 ~step:i addr size then w else 0)
  in
  let f = if gain > 0 then f1 else f0 in
  (* Free every live or ghost object that is not f-occupying, in the
     reverse of the view's order (which the event stream follows). *)
  View.retain view (fun _ addr size -> occupies ~f ~step:i addr size);
  (* Refill: floor((M - present)/2^i) objects of size 2^i. Ghosts count
     against the refill (Algorithm 1 line 7), which keeps the program
     safely below its live bound. *)
  let count = (m - View.present_words view) / modulus in
  for _ = 1 to count do
    ignore (View.alloc view ~size:modulus : Pc_heap.Oid.t)
  done;
  f

(* Number of live-or-ghost f-occupying objects — the quantity Claim
   4.9 bounds from below by M*(i+2)/2^(i+1) after step i. *)
let occupying_count view ~f ~step =
  View.sum_present view (fun addr size ->
      if occupies ~f ~step addr size then 1 else 0)

(* Run steps 0..steps. Returns the final offset f_steps. [observe]
   fires after each step with the chosen offset. *)
let run ?observe view ~m ~steps =
  if steps < 0 then invalid_arg "Robson_steps.run: negative step count";
  for _ = 1 to m - View.present_words view do
    ignore (View.alloc view ~size:1 : Pc_heap.Oid.t)
  done;
  let emit i f =
    match observe with Some g -> g ~step:i ~f | None -> ()
  in
  emit 0 0;
  let f = ref 0 in
  for i = 1 to steps do
    f := step view ~m ~prev_f:!f ~step:i;
    emit i !f
  done;
  !f
