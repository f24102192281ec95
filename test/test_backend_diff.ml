open Pc_heap

(* Differential suite pinning the heap kernel ([Heap], [Free_index]) to
   the persistent reference ([Heap_ref], [Free_index_ref]). Every
   observable — per-op results (including failure messages),
   placements, frontier, gap list, fit queries, range queries — must be
   bit-identical between a kernel heap and a reference heap driven by
   the same operation sequence. A second layer records the paper's
   adversaries through every registered manager on the kernel and steps
   each trace onto a fresh kernel and a fresh reference in lockstep
   (see [Helpers.lockstep]). *)

let fail fmt = QCheck.Test.fail_reportf fmt
let report = QCheck.Test.fail_report

(* Compare every observable of the two heaps. *)
let check_state hi hr =
  Helpers.Diff.aggregates ~fail:report hi hr;
  Helpers.Diff.lists ~fail:report hi hr

(* Compare the fit/range query surface at randomly drawn arguments. *)
let check_queries st hi hr =
  let size = 1 + Random.State.int st 32 in
  let align = 1 lsl Random.State.int st 5 in
  let from = Random.State.int st 512 in
  let k = Random.State.int st 8 in
  Helpers.Diff.fits ~fail:report hi hr ~size ~align ~from;
  Helpers.Diff.largest_gaps ~fail:report hi hr ~k;
  let start = Random.State.int st 512 in
  let stop = start + 1 + Random.State.int st 96 in
  Helpers.Diff.window ~fail:report hi hr ~start ~stop

(* Apply the same (possibly invalid) operation to both heaps and demand
   the same result — same oid on success, same exception message on
   failure. *)
let both what f g =
  let attempt f =
    match f () with
    | v -> Ok v
    | exception Invalid_argument m -> Error m
  in
  match (attempt f, attempt g) with
  | Ok a, Ok b -> Some (a, b)
  | Error a, Error b ->
      if a <> b then fail "%s failure messages differ: %S vs %S" what a b;
      None
  | Ok _, Error m -> fail "%s: kernel succeeded, reference raised %S" what m
  | Error m, Ok _ -> fail "%s: kernel raised %S, reference succeeded" what m

let prop_lockstep =
  QCheck.Test.make
    ~name:"imperative backend = reference backend on random op sequences"
    ~count:80
    QCheck.(pair (int_bound 1_000_000) (int_range 30 300))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed |] in
      let hi = Heap.create () in
      let hr = Heap_ref.create () in
      let live = ref [] in
      for step = 1 to steps do
        (match Random.State.int st 6 with
        | 0 | 1 ->
            (* Allocation at an arbitrary address — may collide with a
               live object, in which case both heaps must reject it
               with the same message and consume no oid. *)
            let size = 1 + Random.State.int st 16 in
            let addr = Random.State.int st 400 in
            (match
               both "alloc"
                 (fun () -> Heap.alloc hi ~addr ~size)
                 (fun () -> Heap_ref.alloc hr ~addr ~size)
             with
            | Some (a, b) ->
                if Oid.to_int a <> Oid.to_int b then
                  fail "alloc returned #%d vs #%d" (Oid.to_int a)
                    (Oid.to_int b);
                live := a :: !live
            | None -> ())
        | 2 -> (
            match !live with
            | [] -> ()
            | oid :: rest ->
                ignore
                  (both "free"
                     (fun () -> Heap.free hi oid)
                     (fun () -> Heap_ref.free hr oid)
                    : (unit * unit) option);
                live := rest)
        | 3 -> (
            (* Move to an arbitrary destination, overlapping slides and
               collisions included; failures must roll back identically
               on both sides. *)
            match !live with
            | [] -> ()
            | oid :: _ ->
                let dst = Random.State.int st 400 in
                ignore
                  (both "move"
                     (fun () -> Heap.move hi oid ~dst)
                     (fun () -> Heap_ref.move hr oid ~dst)
                    : (unit * unit) option))
        | 4 -> check_queries st hi hr
        | _ ->
            (* Occasional double free / dangling access. *)
            let dead = Oid.of_int (Random.State.int st 64) in
            if not (List.exists (fun o -> Oid.to_int o = Oid.to_int dead) !live)
            then
              ignore
                (both "get dead"
                   (fun () -> ignore (Heap.get hi dead : Heap.obj))
                   (fun () -> ignore (Heap_ref.get hr dead : Heap.obj))
                  : (unit * unit) option));
        if step land 15 = 0 then check_state hi hr
      done;
      check_state hi hr;
      check_queries st hi hr;
      Heap.check_invariants hi;
      Heap_ref.check_invariants hr;
      true)

(* End-to-end: the paper's adversaries, driven through every
   registered manager on the kernel, recorded, and stepped onto a fresh
   kernel and a fresh reference in lockstep; the kernel replay must
   also reproduce the run's outcome. *)
let test_pf_outcomes_agree () =
  List.iter
    (fun key ->
      let _, program =
        Pc_adversary.Pf.program ~m:(1 lsl 12) ~n:(1 lsl 6) ~c:8.0 ()
      in
      let o, trace = Helpers.recorded_run ~c:8.0 ~program key in
      let what = "PF vs " ^ key in
      Helpers.check_replayed ~what o (Helpers.lockstep ~what trace))
    (Pc_manager.Registry.keys ())

let test_robson_outcomes_agree () =
  List.iter
    (fun key ->
      let program =
        Pc_adversary.Robson_pr.program ~m:(1 lsl 10) ~n:(1 lsl 4) ()
      in
      let o, trace = Helpers.recorded_run ~program key in
      let what = "Robson vs " ^ key in
      Helpers.check_replayed ~what o (Helpers.lockstep ~what trace))
    (Pc_manager.Registry.keys ())

let () =
  Alcotest.run "backend-diff"
    [
      ( "lockstep",
        [ QCheck_alcotest.to_alcotest ~long:true prop_lockstep ] );
      ( "end-to-end",
        [
          Alcotest.test_case "PF outcomes agree across backends" `Quick
            test_pf_outcomes_agree;
          Alcotest.test_case "Robson outcomes agree across backends" `Quick
            test_robson_outcomes_agree;
        ] );
    ]
