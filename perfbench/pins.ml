(* Outcome pinning. [pins.tsv] stores, for every job any workload can
   run, the outcome the program must reproduce: one line per job with
   the spec digest, hs, allocated, freed, moved, final_live, compliant
   and the canonical spec key. A job that fails, is missing from the
   file, or reproduces a different outcome counts as failed. *)

open Pc_core.Pc
module Spec = Exec.Spec

type pin = {
  hs : int;
  allocated : int;
  freed : int;
  moved : int;
  final_live : int;
  compliant : bool;
}

let of_outcome (o : Runner.outcome) =
  {
    hs = o.hs;
    allocated = o.allocated;
    freed = o.freed;
    moved = o.moved;
    final_live = o.final_live;
    compliant = o.compliant;
  }

type t = (string, pin) Hashtbl.t

let line spec p =
  Printf.sprintf "%s\t%d\t%d\t%d\t%d\t%d\t%b\t%s" (Spec.digest spec) p.hs
    p.allocated p.freed p.moved p.final_live p.compliant (Spec.key spec)

let load path : t =
  let tbl = Hashtbl.create 512 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun l ->
         match String.split_on_char '\t' l with
         | [ digest; hs; allocated; freed; moved; final_live; compliant; _key ] ->
             Hashtbl.replace tbl digest
               {
                 hs = int_of_string hs;
                 allocated = int_of_string allocated;
                 freed = int_of_string freed;
                 moved = int_of_string moved;
                 final_live = int_of_string final_live;
                 compliant = bool_of_string compliant;
               }
         | _ -> ());
  tbl

(* Recompute every pin from scratch (bypassing cache and journal) and
   write the file. *)
let write path specs =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun spec ->
          let r = Exec.Engine.execute spec in
          Printf.fprintf oc "%s\n"
            (line spec (of_outcome (Exec.Engine.outcome_exn r))))
        specs)

(* ------------------------------------------------------------------ *)
(* The run's verdict: every checked operation counts once in
   [attempted]; a wrong or missing result counts in [failed]. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few failures, for stderr *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let expect t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- what :: t.notes
  end;
  ok

let check t pins spec result =
  let key = Spec.key spec in
  match result with
  | Error e -> expect t false (Printf.sprintf "%s: %s" key e)
  | Ok o -> (
      match Hashtbl.find_opt pins (Spec.digest spec) with
      | None -> expect t false ("no pinned outcome: " ^ key)
      | Some p -> expect t (p = of_outcome o) ("outcome differs from pin: " ^ key))
