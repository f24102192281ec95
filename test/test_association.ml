open Pc_heap
open Pc_adversary

let oid = Oid.of_int
let check_int = Alcotest.(check int)

let test_whole_entries () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:4 ~chunk:0;
  Association.assoc_whole a (oid 2) ~obj_size:2 ~chunk:0;
  Association.assoc_whole a (oid 3) ~obj_size:8 ~chunk:5;
  check_int "sum chunk 0" 6 (Association.sum a 0);
  check_int "sum chunk 5" 8 (Association.sum a 5);
  check_int "sum empty chunk" 0 (Association.sum a 7);
  Alcotest.(check (list int)) "locs" [ 0 ] (Association.locs_of a (oid 1));
  check_int "chunk count" 2 (Association.chunk_count a);
  Association.check_invariants a

let test_halves () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  check_int "half in chunk 0" 4 (Association.sum a 0);
  check_int "half in chunk 2" 4 (Association.sum a 2);
  Alcotest.(check (list int)) "two locs" [ 2; 0 ]
    (List.sort (fun x y -> compare y x) (Association.locs_of a (oid 1)));
  (* same-chunk halves collapse to a whole *)
  Association.assoc_halves a (oid 2) ~obj_size:8 ~chunk1:1 ~chunk2:1;
  check_int "collapsed whole" 8 (Association.sum a 1);
  Association.check_invariants a

let test_migrate_half () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  let e = List.hd (Association.entries a 0) in
  (match Association.migrate_half a ~from_idx:0 e with
  | Some dest ->
      check_int "destination is partner chunk" 2 dest;
      check_int "source emptied" 0 (Association.sum a 0);
      check_int "whole at destination" 8 (Association.sum a 2);
      Alcotest.(check bool) "entry is whole now" true
        (match Association.entries a 2 with
        | [ e ] -> not (Association.entry_half e)
        | _ -> false)
  | None -> Alcotest.fail "expected a destination");
  Association.check_invariants a

let test_migrate_orphan_half () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  (* reuse chunk 2 (its entries drop), leaving an orphaned half at 0 *)
  let vanished = Association.reset_chunk a 2 in
  Alcotest.(check (list int)) "nothing fully vanished yet" []
    (List.map Oid.to_int vanished);
  let e = List.hd (Association.entries a 0) in
  Alcotest.(check bool) "orphan migration returns None" true
    (Association.migrate_half a ~from_idx:0 e = None);
  Alcotest.(check (list int)) "no locs left" []
    (Association.locs_of a (oid 1));
  Association.check_invariants a

let test_reset_chunk () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:4 ~chunk:0;
  Association.assoc_halves a (oid 2) ~obj_size:8 ~chunk1:0 ~chunk2:3;
  let vanished = Association.reset_chunk a 0 in
  Alcotest.(check (list int)) "whole-only object vanished" [ 1 ]
    (List.map Oid.to_int vanished);
  check_int "chunk emptied" 0 (Association.sum a 0);
  check_int "other half survives" 4 (Association.sum a 3);
  Association.check_invariants a

let test_middle_set () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.set_middle a 4;
  Alcotest.(check bool) "middle" true (Association.is_middle a 4);
  (* associating clears the middle flag *)
  Association.assoc_whole a (oid 1) ~obj_size:2 ~chunk:4;
  Alcotest.(check bool) "cleared by association" false (Association.is_middle a 4);
  (* a step change empties E *)
  Association.set_middle a 6;
  Association.merge_step a;
  Alcotest.(check bool) "cleared by step change" false (Association.is_middle a 3);
  Association.check_invariants a

let test_merge_step () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:2 ~chunk:0;
  Association.assoc_whole a (oid 2) ~obj_size:4 ~chunk:1;
  (* halves of oid 3 sit in chunks 2 and 3, which merge into chunk 1 *)
  Association.assoc_halves a (oid 3) ~obj_size:8 ~chunk1:2 ~chunk2:3;
  (* halves of oid 4 sit in chunks 5 and 6, which merge into 2 and 3 *)
  Association.assoc_halves a (oid 4) ~obj_size:16 ~chunk1:5 ~chunk2:6;
  Association.merge_step a;
  check_int "chunk size doubled" 4 (Association.chunk_log a);
  check_int "merged sums add" 6 (Association.sum a 0);
  check_int "half pair becomes whole" 8 (Association.sum a 1);
  Alcotest.(check bool) "whole entry" true
    (match Association.entries a 1 with [ e ] -> not (Association.entry_half e) | _ -> false);
  check_int "split halves stay halves" 8 (Association.sum a 2);
  check_int "oid4 other half" 8 (Association.sum a 3);
  Alcotest.(check bool) "still halves" true
    (match Association.entries a 2 with [ e ] -> Association.entry_half e | _ -> false);
  Association.check_invariants a

(* Removal marks a node where it stands: no walk, sum or loc may see
   it, a chunk whose entries are all gone can join E, and a merge
   leaves no marked node behind. *)
let test_removed_entries () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:4 ~chunk:0;
  Association.assoc_whole a (oid 2) ~obj_size:2 ~chunk:0;
  Association.assoc_halves a (oid 3) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  Association.assoc_whole a (oid 4) ~obj_size:8 ~chunk:1;
  Association.assoc_whole a (oid 5) ~obj_size:1 ~chunk:2;
  let entry o idx =
    List.find
      (fun e -> Oid.to_int (Association.entry_oid e) = o)
      (Association.entries a idx)
  in
  Association.remove_entry a 0 (entry 2 0);
  ignore (Association.migrate_half a ~from_idx:0 (entry 3 0) : int option);
  ignore (Association.reset_chunk a 1 : Oid.t list);
  let oids idx =
    List.map (fun e -> Oid.to_int (Association.entry_oid e))
      (Association.entries a idx)
  in
  let iterated idx =
    let acc = ref [] in
    Association.iter_entries a idx (fun e _ ->
        acc := Oid.to_int (Association.entry_oid e) :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "entries 0" [ 1 ] (oids 0);
  Alcotest.(check (list int)) "iter 0" [ 1 ] (iterated 0);
  Alcotest.(check (list int)) "entries 1" [] (oids 1);
  Alcotest.(check (list int)) "iter 1" [] (iterated 1);
  Alcotest.(check (list int)) "entries 2" [ 3; 5 ] (oids 2);
  check_int "sum 0" 4 (Association.sum a 0);
  check_int "sum 1" 0 (Association.sum a 1);
  check_int "sum 2" 9 (Association.sum a 2);
  Alcotest.(check (list int)) "removed whole" [] (Association.locs_of a (oid 2));
  Alcotest.(check (list int)) "migrated" [ 2 ] (Association.locs_of a (oid 3));
  Alcotest.(check (list int)) "reset" [] (Association.locs_of a (oid 4));
  Association.check_invariants a;
  Association.remove_entry a 0 (entry 1 0);
  Association.set_middle a 0;
  Alcotest.(check bool) "emptied chunk joins E" true (Association.is_middle a 0);
  Association.merge_step a;
  Alcotest.(check (list int)) "merged 0" [] (oids 0);
  Alcotest.(check (list int)) "merged 1" [ 3; 5 ] (oids 1);
  check_int "merged sum" 9 (Association.sum a 1);
  Association.check_invariants a

let test_potential () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  let n = 64 in
  (* chunk words 8, ell 2: u_D = min(4 * sum, 8) *)
  Association.assoc_whole a (oid 1) ~obj_size:1 ~chunk:0;
  (* u_0 = 4 *)
  Association.assoc_whole a (oid 2) ~obj_size:8 ~chunk:1;
  (* u_1 = 8 (capped) *)
  Association.set_middle a 2;
  (* u_2 = 8 *)
  check_int "potential" (4 + 8 + 8 - (n / 4)) (Association.potential a ~n)

let test_create_validation () =
  Alcotest.check_raises "ell >= 1"
    (Invalid_argument "Association.create: need l >= 1") (fun () ->
      ignore (Association.create ~chunk_log:3 ~ell:0))

(* Random association scripts keep the structural invariants — checked
   after every step, and the scripts also exercise [merge_step] (the
   between-steps chunk-size doubling of PF). *)
let prop_random_scripts =
  QCheck.Test.make ~name:"random scripts keep invariants" ~count:50
    QCheck.(pair (int_bound 100_000) (int_range 5 80))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed |] in
      let a = Association.create ~chunk_log:3 ~ell:2 in
      let next = ref 0 in
      for _ = 1 to steps do
        (match Random.State.int st 6 with
        | 0 ->
            incr next;
            Association.assoc_whole a (oid !next)
              ~obj_size:(1 lsl Random.State.int st 4)
              ~chunk:(Random.State.int st 8)
        | 1 ->
            incr next;
            let c1 = Random.State.int st 8 in
            let c2 = Random.State.int st 8 in
            Association.assoc_halves a (oid !next)
              ~obj_size:(2 lsl Random.State.int st 3)
              ~chunk1:c1 ~chunk2:c2
        | 2 -> ignore (Association.reset_chunk a (Random.State.int st 8))
        | 3 -> (
            let idx = Random.State.int st 8 in
            match Association.entries a idx with
            | e :: _ when Association.entry_half e ->
                ignore (Association.migrate_half a ~from_idx:idx e)
            | e :: _ -> Association.remove_entry a idx e
            | [] -> ())
        | 4 ->
            (* only reset (empty) chunks can join E, as in PF line 14 *)
            let idx = Random.State.int st 8 in
            ignore (Association.reset_chunk a idx);
            Association.set_middle a idx
        | _ ->
            (* keep chunk sizes bounded across long scripts *)
            if Association.chunk_log a < 16 then Association.merge_step a);
        Association.check_invariants a
      done;
      true)

(* The flat association against the hashtable one it replaced
   (Association_ref): random scripts of every operation, compared after
   each step on the chunk order, each chunk's entries in order, sums,
   middle flags, locs (as sets), the potential and the count. Scripts
   start from a build of whole entries, of up to 1500 objects over up
   to 4096 chunks so that the table grows past 256 and 512 buckets, and
   run merges often enough to cover fresh merged tables. *)
module Ref = Association_ref

let same_state r a ~oids =
  let entry_r (e : Ref.entry) = (Oid.to_int e.oid, Ref.entry_size e, e.half) in
  let entry_a e =
    ( Oid.to_int (Association.entry_oid e),
      Association.entry_size a e,
      Association.entry_half e )
  in
  let chunks = Ref.chunk_indices r in
  chunks = Association.chunk_indices a
  && Ref.chunk_count r = Association.chunk_count a
  && Ref.chunk_log r = Association.chunk_log a
  && List.for_all
       (fun idx ->
         Ref.sum r idx = Association.sum a idx
         && Ref.is_middle r idx = Association.is_middle a idx
         && List.map entry_r (Ref.entries r idx)
            = List.map entry_a (Association.entries a idx))
       chunks
  && List.for_all
       (fun o ->
         List.sort compare (Ref.locs_of r (oid o))
         = List.sort compare (Association.locs_of a (oid o)))
       (List.init oids Fun.id)
  && Ref.potential r ~n:64 = Association.potential a ~n:64

let pick st = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int st (List.length l)))

let prop_matches_reference =
  QCheck.Test.make ~name:"matches the hashtable association" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let range = [| 8; 8; 64; 64; 64; 256; 1024; 4096 |].(Random.State.int st 8) in
      let built = Random.State.int st (if range > 64 then 1500 else 40) in
      let steps = 1 + Random.State.int st (if range > 64 then 40 else 120) in
      let chunk () = Random.State.int st range in
      let sizes = Array.init built (fun _ -> 1 lsl Random.State.int st 5) in
      let chunks = Array.init built (fun _ -> chunk ()) in
      let oids = Array.init built oid in
      let r = Ref.create ~chunk_log:3 ~ell:2 in
      let a = Association.create ~chunk_log:3 ~ell:2 in
      Array.iteri
        (fun j o ->
          Ref.assoc_whole r o ~obj_size:sizes.(j) ~chunk:chunks.(j);
          Association.assoc_whole a o ~obj_size:sizes.(j) ~chunk:chunks.(j))
        oids;
      let next = ref built in
      let fresh () =
        incr next;
        oid (!next - 1)
      in
      (* A chunk with an entry matching [want], and that entry in both. *)
      let with_entry want =
        let idxs =
          List.filter
            (fun idx -> List.exists want (Ref.entries r idx))
            (Ref.chunk_indices r)
        in
        Option.bind (pick st idxs) (fun idx ->
            Option.map
              (fun (e : Ref.entry) ->
                let ea =
                  List.find
                    (fun x -> Oid.equal (Association.entry_oid x) e.oid)
                    (Association.entries a idx)
                in
                (idx, e, ea))
              (pick st (List.filter want (Ref.entries r idx))))
      in
      let ok = ref (same_state r a ~oids:!next) in
      let step = ref 0 in
      while !ok && !step < steps do
        incr step;
        let agree =
          match Random.State.int st 13 with
          | 0 | 1 ->
              let o = fresh () and obj_size = 1 lsl Random.State.int st 5
              and c = chunk () in
              Ref.assoc_whole r o ~obj_size ~chunk:c;
              Association.assoc_whole a o ~obj_size ~chunk:c;
              true
          | 2 | 3 ->
              let o = fresh () and obj_size = 2 lsl Random.State.int st 4 in
              let chunk1 = chunk () and chunk2 = chunk () in
              Ref.assoc_halves r o ~obj_size ~chunk1 ~chunk2;
              Association.assoc_halves a o ~obj_size ~chunk1 ~chunk2;
              true
          | 4 ->
              let c = chunk () in
              List.map Oid.to_int (Ref.reset_chunk r c)
              = List.map Oid.to_int (Association.reset_chunk a c)
          | 5 | 6 -> (
              match with_entry (fun _ -> true) with
              | None -> true
              | Some (idx, e, ea) ->
                  Ref.remove_entry r idx e;
                  Association.remove_entry a idx ea;
                  true)
          | 7 | 8 -> (
              match with_entry (fun (e : Ref.entry) -> e.half) with
              | None -> true
              | Some (idx, e, ea) ->
                  Ref.migrate_half r ~from_idx:idx e
                  = Association.migrate_half a ~from_idx:idx ea)
          | 9 ->
              (* only reset (empty) chunks can join E, as in PF line 14 *)
              let c = chunk () in
              let same =
                List.map Oid.to_int (Ref.reset_chunk r c)
                = List.map Oid.to_int (Association.reset_chunk a c)
              in
              Ref.set_middle r c;
              Association.set_middle a c;
              same
          | _ ->
              if Ref.chunk_log r < 20 then begin
                Ref.merge_step r;
                Association.merge_step a
              end;
              true
        in
        Association.check_invariants a;
        ok := agree && same_state r a ~oids:!next
      done;
      !ok)

let () =
  Alcotest.run "association"
    [
      ( "unit",
        [
          Alcotest.test_case "whole entries" `Quick test_whole_entries;
          Alcotest.test_case "halves" `Quick test_halves;
          Alcotest.test_case "migrate half" `Quick test_migrate_half;
          Alcotest.test_case "orphan half" `Quick test_migrate_orphan_half;
          Alcotest.test_case "reset chunk" `Quick test_reset_chunk;
          Alcotest.test_case "middle set" `Quick test_middle_set;
          Alcotest.test_case "merge step" `Quick test_merge_step;
          Alcotest.test_case "removed entries" `Quick test_removed_entries;
          Alcotest.test_case "potential" `Quick test_potential;
          Alcotest.test_case "validation" `Quick test_create_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_scripts; prop_matches_reference ] );
    ]
