(** The step engine of Robson's bad program [P_R] (Algorithm 2), in
    the ghost-hardened form used by stage 1 of [P_F]. *)

val occupies : f:int -> step:int -> int -> int -> bool
(** [occupies ~f ~step addr size]: is an object of [size] words at
    [addr] [f]-occupying with respect to [step] (Definition 4.2), that
    is, does it cover a word congruent to [f] modulo [2{^step}]? *)

val wasted_space : View.t -> f:int -> step:int -> int
(** Algorithm 2's objective: [Σ (2{^step} − |o|)] over [f]-occupying
    live and ghost objects. *)

val occupying_count : View.t -> f:int -> step:int -> int
(** Number of live-or-ghost [f]-occupying objects — the quantity
    Claim 4.9 bounds below by [M·(i+2)/2{^i+1}] after step [i]. *)

val run :
  ?observe:(step:int -> f:int -> unit) -> View.t -> m:int -> steps:int -> int
(** Run steps [0..steps] (step 0 fills the budget with unit objects);
    returns the final offset [f_steps]. [observe] fires after each
    step with the chosen offset. *)
