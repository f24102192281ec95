(* Theorem 2 of the paper — the improved upper bound, which the
   authors describe as the minor result. For c > (1/2) log n there is a
   c-partial manager serving every program in P(M, n) within

     HS <= 2M * sum_{i=0..log n} max(a_i, 1/(4 - 2/c)) + 2n*log n

   where a_0 = 1 and

     a_i = (1 - 1/c) * max_{j=0..i-1} max(1/c, 2^(j-i) * a_j).

   The a_i recursion is stated unambiguously in the conference text;
   the surrounding bound formula is typographically corrupted in our
   source and the proof lives in the unavailable full version, so the
   assembly above is a documented reconstruction (DESIGN.md,
   "Substitutions"). The shape — an improvement over the prior best
   min((c+1)M, Robson's doubled bound) for mid-range c — is what the
   Figure 3 experiment checks. *)

let coefficients ~c ~log_n =
  if c <= 1.0 then invalid_arg "Theorem2.coefficients: c <= 1";
  if log_n < 0 then invalid_arg "Theorem2.coefficients: negative log n";
  let a = Array.make (log_n + 1) 1.0 in
  for i = 1 to log_n do
    let best = ref (1.0 /. c) in
    for j = 0 to i - 1 do
      let scaled = a.(j) *. Float.pow 2.0 (float_of_int (j - i)) in
      if scaled > !best then best := scaled
    done;
    a.(i) <- (1.0 -. (1.0 /. c)) *. !best
  done;
  a

let applicable ~n ~c = c > 0.5 *. Logf.log2i n

let upper_bound ~m ~n ~c =
  if n <= 1 || m < n then invalid_arg "Theorem2.upper_bound: params";
  if not (applicable ~n ~c) then
    invalid_arg "Theorem2.upper_bound: requires c > (1/2) log n";
  let log_n = int_of_float (Float.round (Logf.log2i n)) in
  let a = coefficients ~c ~log_n in
  let floor_term = 1.0 /. (4.0 -. (2.0 /. c)) in
  let sum =
    Array.fold_left (fun acc ai -> acc +. Float.max ai floor_term) 0.0 a
  in
  (2.0 *. float_of_int m *. sum)
  +. (2.0 *. float_of_int n *. float_of_int log_n)

(* The prior best upper bound the paper compares against in Figure 3:
   the cheaper of Bendersky-Petrank's (c+1)M and Robson's (doubled,
   since P(M, n) allows arbitrary sizes). *)
let prior_best ~m ~n ~c =
  Float.min
    (Bendersky_petrank.upper_bound ~m ~c)
    (Robson.upper_bound_general ~m ~n)

let improvement ~m ~n ~c =
  let prior = prior_best ~m ~n ~c in
  (prior -. upper_bound ~m ~n ~c) /. prior

let waste_factor ~m ~n ~c = upper_bound ~m ~n ~c /. float_of_int m
