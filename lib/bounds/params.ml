(* Parameter presets for the paper's figures and for laptop-scale
   simulation. The paper measures M and n in bytes; we identify words
   with the paper's units (the bounds are unit-free ratios). *)

type t = { m : int; n : int; c : float }

let kb = 1 lsl 10
let mb = 1 lsl 20

(* Figure 1: M = 256MB, n = 1MB, c swept over [10, 100]. *)
let fig1 ~c = { m = 256 * mb; n = mb; c }
let fig1_cs = List.init 19 (fun i -> float_of_int (10 + (5 * i)))

(* Figure 2: c = 100, M = 256n, n swept over [1KB, 1GB]. *)
let fig2 ~n = { m = 256 * n; n; c = 100.0 }
let fig2_ns = List.init 21 (fun i -> kb lsl i)
(* 2^10 .. 2^30 *)

(* Figure 3: same axes as Figure 1. *)
let fig3 ~c = fig1 ~c
let fig3_cs = fig1_cs

(* The c values of the simulation sweeps. *)
let sim_cs = [ 8.0; 16.0; 32.0; 64.0 ]
