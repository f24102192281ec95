(** Parameter presets for the paper's figures and for laptop-scale
    simulation. Words are identified with the paper's byte units — the
    bounds are unit-free ratios. *)

type t = { m : int  (** live-space bound M *); n : int; c : float }

val kb : int
val mb : int

val fig1 : c:float -> t
(** M = 256 MB, n = 1 MB. *)

val fig1_cs : float list
(** c = 10, 15, …, 100. *)

val fig2 : n:int -> t
(** c = 100, M = 256·n. *)

val fig2_ns : int list
(** n = 1 KB, 2 KB, …, 1 GB. *)

val fig3 : c:float -> t
val fig3_cs : float list

val sim_cs : float list
