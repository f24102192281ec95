(* The job lists behind each workload. See README.md for why each was
   chosen. *)

open Pc_core.Pc
module Spec = Exec.Spec

type scale = Full | Toy

let scale_name = function Full -> "full" | Toy -> "toy"

(* P_F against the two c-partial compactors at two budgets. *)
let pf_compact scale =
  let m, n =
    match scale with Full -> (1 lsl 18, 1 lsl 9) | Toy -> (1 lsl 13, 1 lsl 6)
  in
  List.concat_map
    (fun manager -> List.map (fun c -> Spec.pf ~c ~manager ~m ~n ()) [ 16.; 32. ])
    [ "compacting"; "improved-ac" ]

(* P_R against five non-moving managers. *)
let robson_fit scale =
  let m, n =
    match scale with Full -> (1 lsl 18, 1 lsl 8) | Toy -> (1 lsl 12, 1 lsl 6)
  in
  List.map
    (fun manager -> Spec.robson ~manager ~m ~n ())
    [ "first-fit"; "best-fit"; "aligned-fit"; "segregated"; "tlsf" ]

(* serve-mixed draws its submissions from this fixed pool of small
   churn jobs (the size `bench serve` uses); the workload seed picks
   which and in what order, so every job it can send is pinned. *)
let serve_pool =
  let managers = [| "first-fit"; "best-fit"; "tlsf" |] in
  Array.init 256 (fun k ->
      Spec.random_churn ~seed:(k + 1) ~churn:1_500 ~c:8.0
        ~manager:managers.(k mod 3) ~m:(1 lsl 12)
        ~dist:(Spec.Pow2 { lo_log = 0; hi_log = 4 })
        ~target_live:(1 lsl 11) ())

let all_pinned () =
  pf_compact Full @ pf_compact Toy @ robson_fit Full @ robson_fit Toy
  @ Array.to_list serve_pool
