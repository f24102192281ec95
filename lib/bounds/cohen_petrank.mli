(** Theorem 1 of the paper — the lower bound on the heap size any
    c-partial memory manager needs against the program [PF].

    All parameters in words; [m] is the live-space bound [M], [n] the
    largest object size (a power of two in the intended use), [c > 1]
    the compaction bound. The parameter [l] (the paper's [ℓ]; chunk
    density is kept at [2{^-ℓ}]) must satisfy [2{^ℓ} <= 3c/4]. *)

type point = { ell : int; h : float }

val s1_factor : ell:int -> float
(** [ℓ + 1 − ½·Σ_{i=1..ℓ} i/(2{^i} − 1)] — stage-1 allocation divided
    by [M] (Claim 4.11). *)

val ell_limit : c:float -> int
(** Largest [ℓ] allowed by the side condition [2{^ℓ} ≤ 3c/4]. *)

val h : m:int -> n:int -> c:float -> ell:int -> float option
(** The waste factor [h(ℓ)]; [None] when [ℓ] violates the side
    conditions ([ℓ ≥ 1], [2{^ℓ} ≤ 3c/4], at least one stage-2 step). *)

val best : m:int -> n:int -> c:float -> point option
(** The [ℓ] maximising [h], with its value. *)

val lower_bound : m:int -> n:int -> c:float -> float
(** [M · max(h_best, 1)] in heap words — clamped below by the trivial
    bound [M]. *)

val waste_factor : m:int -> n:int -> c:float -> float
(** {!lower_bound} divided by [m]; the y-axis of Figures 1 and 2. *)

val stage2_allocation_fraction :
  m:int -> n:int -> c:float -> ell:int -> float option
(** Algorithm 1's [x = (1 − 2{^-ℓ}·h)/(ℓ + 1)]: the fraction of [M]
    the program [PF] allocates at each stage-2 step. *)
