open Pc_heap

let check_int = Alcotest.(check int)

(* Every case runs unchanged over the kernel ([Heap]) and the
   reference ([Heap_ref]). *)
module Cases (H : Heap_intf.HEAP) = struct
  let test_alloc_free_basics () =
    let h = H.create () in
    let a = H.alloc h ~addr:0 ~size:10 in
    let b = H.alloc h ~addr:20 ~size:5 in
    check_int "live words" 15 (H.live_words h);
    check_int "live objects" 2 (H.live_objects h);
    check_int "allocated total" 15 (H.allocated_total h);
    check_int "high water" 25 (H.high_water h);
    check_int "addr a" 0 (H.get h a).addr;
    check_int "size b" 5 (H.get h b).size;
    H.free h a;
    check_int "live after free" 5 (H.live_words h);
    check_int "freed total" 10 (H.freed_total h);
    check_int "high water sticky" 25 (H.high_water h);
    H.check_invariants h

  let test_overlap_rejected () =
    let h = H.create () in
    ignore (H.alloc h ~addr:0 ~size:10 : Oid.t);
    Alcotest.check_raises "overlap"
      (Invalid_argument "Free_index.occupy: extent not free") (fun () ->
        ignore (H.alloc h ~addr:5 ~size:10 : Oid.t));
    Alcotest.check_raises "bad size"
      (Invalid_argument "Heap.alloc: non-positive size")
      (fun () -> ignore (H.alloc h ~addr:50 ~size:0 : Oid.t))

  let test_double_free_rejected () =
    let h = H.create () in
    let a = H.alloc h ~addr:0 ~size:4 in
    H.free h a;
    Alcotest.check_raises "double free"
      (Invalid_argument "Heap.get: unknown or dead object") (fun () ->
        H.free h a)

  let test_move () =
    let h = H.create () in
    let a = H.alloc h ~addr:0 ~size:8 in
    let _b = H.alloc h ~addr:8 ~size:8 in
    H.move h a ~dst:32;
    check_int "moved addr" 32 (H.get h a).addr;
    check_int "moved total" 8 (H.moved_total h);
    check_int "hwm follows move" 40 (H.high_water h);
    check_int "live unchanged" 16 (H.live_words h);
    H.check_invariants h;
    (* moving onto an occupied extent must fail and roll back *)
    Alcotest.check_raises "move onto occupied"
      (Invalid_argument "Free_index.occupy: extent not free") (fun () ->
        H.move h a ~dst:8);
    check_int "rollback kept address" 32 (H.get h a).addr;
    H.check_invariants h

  let test_sliding_move () =
    let h = H.create () in
    let a = H.alloc h ~addr:10 ~size:8 in
    (* overlapping slide down: [10,18) -> [6,14) *)
    H.move h a ~dst:6;
    check_int "slid" 6 (H.get h a).addr;
    check_int "moved total" 8 (H.moved_total h);
    H.check_invariants h

  let test_move_noop () =
    let h = H.create () in
    let a = H.alloc h ~addr:4 ~size:4 in
    H.move h a ~dst:4;
    check_int "noop move costs nothing" 0 (H.moved_total h)

  let test_objects_in () =
    let h = H.create () in
    let _a = H.alloc h ~addr:0 ~size:10 in
    let _b = H.alloc h ~addr:16 ~size:8 in
    let _c = H.alloc h ~addr:30 ~size:4 in
    let names objs = List.map (fun (o : H.obj) -> o.addr) objs in
    Alcotest.(check (list int)) "straddler included" [ 0; 16 ]
      (names (H.objects_in h ~start:5 ~stop:20));
    Alcotest.(check (list int)) "exact range" [ 16 ]
      (names (H.objects_in h ~start:16 ~stop:24));
    Alcotest.(check (list int)) "empty range" []
      (names (H.objects_in h ~start:10 ~stop:16));
    check_int "occupied words straddle" 9
      (H.occupied_words_in h ~start:5 ~stop:20);
    check_int "occupied words all" 22 (H.occupied_words_in h ~start:0 ~stop:40)

  let test_events () =
    let h = H.create () in
    let log = ref [] in
    H.on_event h (fun e -> log := e :: !log);
    let a = H.alloc h ~addr:0 ~size:4 in
    H.move h a ~dst:8;
    H.free h a;
    match List.rev !log with
    | [ H.Alloc o1; H.Move m; H.Free o2 ] ->
        check_int "alloc addr" 0 o1.addr;
        check_int "move src" 0 m.src;
        check_int "move dst" 8 m.dst;
        check_int "free addr" 8 o2.addr
    | evs ->
        Alcotest.failf "unexpected event sequence (%d events)" (List.length evs)

  (* Random operation scripts preserve every heap invariant, and the
     recorded trace replays to an identical heap. *)
  let prop_random_ops_invariants name =
    QCheck.Test.make
      ~name:
        (Fmt.str "random ops: invariants hold and trace replays [%s]" name)
      ~count:40
      QCheck.(pair (int_bound 100_000) (int_range 10 200))
      (fun (seed, steps) ->
        let st = Random.State.make [| seed |] in
        let h = H.create () in
        let events = ref [] in
        H.on_event h (fun e -> events := e :: !events);
        let live = ref [] in
        for _ = 1 to steps do
          match Random.State.int st 4 with
          | 0 | 1 ->
              let size = 1 + Random.State.int st 16 in
              let addr = Random.State.int st 256 in
              if H.is_free h ~addr ~size then
                live := H.alloc h ~addr ~size :: !live
          | 2 -> (
              match !live with
              | [] -> ()
              | oid :: rest ->
                  H.free h oid;
                  live := rest)
          | _ -> (
              match !live with
              | [] -> ()
              | oid :: _ ->
                  let { H.size; addr = cur; _ } = H.get h oid in
                  let dst = Random.State.int st 256 in
                  if
                    dst <> cur
                    && (dst + size <= cur || dst >= cur + size)
                    && H.is_free h ~addr:dst ~size
                  then H.move h oid ~dst)
        done;
        H.check_invariants h;
        let replayed = H.create () in
        (match
           Trace.replay_onto (module H) (Trace.of_events (List.rev !events))
             replayed
         with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "replay rejected: %s" msg);
        H.check_invariants replayed;
        H.high_water replayed = H.high_water h
        && H.live_words replayed = H.live_words h
        && H.moved_total replayed = H.moved_total h
        && List.for_all (fun oid -> H.get replayed oid = H.get h oid) !live)

  (* occupied_words_in agrees with a per-word brute force count. *)
  let prop_occupied_words name =
    QCheck.Test.make
      ~name:(Fmt.str "occupied_words_in matches brute force [%s]" name)
      ~count:40
      QCheck.(triple (int_bound 100_000) (int_bound 200) (int_range 1 60))
      (fun (seed, start, len) ->
        let st = Random.State.make [| seed |] in
        let h = H.create () in
        for _ = 1 to 30 do
          let size = 1 + Random.State.int st 12 in
          let addr = Random.State.int st 200 in
          if H.is_free h ~addr ~size then
            ignore (H.alloc h ~addr ~size : Oid.t)
        done;
        let brute = ref 0 in
        for w = start to start + len - 1 do
          if not (H.is_free h ~addr:w ~size:1) then incr brute
        done;
        H.occupied_words_in h ~start ~stop:(start + len) = !brute)

  (* The fast range queries (a straight fold over the address map) agree
     with a naive O(live) scan of the full live list, across randomised
     alloc/free/move sequences and arbitrary query windows. Guards the
     fold-based fast paths behind eviction cost estimates. *)
  let prop_range_queries_vs_naive name =
    QCheck.Test.make
      ~name:
        (Fmt.str "objects_in/occupied_words_in = naive O(live) reference [%s]"
           name)
      ~count:60
      QCheck.(triple (int_bound 100_000) (int_range 20 250) (int_range 1 80))
      (fun (seed, steps, qlen) ->
        let st = Random.State.make [| seed |] in
        let h = H.create () in
        let live = ref [] in
        for _ = 1 to steps do
          match Random.State.int st 4 with
          | 0 | 1 ->
              let size = 1 + Random.State.int st 16 in
              let addr = Random.State.int st 300 in
              if H.is_free h ~addr ~size then
                live := H.alloc h ~addr ~size :: !live
          | 2 -> (
              match !live with
              | [] -> ()
              | oid :: rest ->
                  H.free h oid;
                  live := rest)
          | _ -> (
              match !live with
              | [] -> ()
              | oid :: _ ->
                  let { H.size; addr = cur; _ } = H.get h oid in
                  let dst = Random.State.int st 300 in
                  if
                    dst <> cur
                    && (dst + size <= cur || dst >= cur + size)
                    && H.is_free h ~addr:dst ~size
                  then H.move h oid ~dst)
        done;
        let start = Random.State.int st 320 in
        let stop = start + qlen in
        (* Naive reference: scan every live object. *)
        let naive_objs =
          List.filter
            (fun (o : H.obj) -> o.addr < stop && o.addr + o.size > start)
            (Helpers.collect (H.iter_live h))
        in
        let naive_words =
          List.fold_left
            (fun acc (o : H.obj) ->
              acc + (min stop (o.addr + o.size) - max start o.addr))
            0 naive_objs
        in
        H.objects_in h ~start ~stop = naive_objs
        && H.occupied_words_in h ~start ~stop = naive_words)
end

let suite name (module H : Heap_intf.HEAP) =
  let module C = Cases (H) in
  [
    ( Fmt.str "unit [%s]" name,
      [
        Alcotest.test_case "alloc/free basics" `Quick C.test_alloc_free_basics;
        Alcotest.test_case "overlap rejected" `Quick C.test_overlap_rejected;
        Alcotest.test_case "double free rejected" `Quick
          C.test_double_free_rejected;
        Alcotest.test_case "move" `Quick C.test_move;
        Alcotest.test_case "sliding move" `Quick C.test_sliding_move;
        Alcotest.test_case "noop move" `Quick C.test_move_noop;
        Alcotest.test_case "objects_in" `Quick C.test_objects_in;
        Alcotest.test_case "events" `Quick C.test_events;
      ] );
    ( Fmt.str "properties [%s]" name,
      List.map QCheck_alcotest.to_alcotest
        [
          C.prop_random_ops_invariants name;
          C.prop_occupied_words name;
          C.prop_range_queries_vs_naive name;
        ] );
  ]

(* The shared event printer: the object's extent follows the oid as a
   literal "@[start,stop)". *)
let test_pp_event () =
  let o = { Heap.oid = Oid.of_int 43; addr = 4509; size = 4 } in
  Alcotest.(check string) "alloc" "alloc #43@[4509,4513)"
    (Fmt.str "%a" Heap.pp_event (Heap.Alloc o));
  Alcotest.(check string) "free" "free #43@[4509,4513)"
    (Fmt.str "%a" Heap.pp_event (Heap.Free o))

(* The kernel's [heap.moves]/[heap.moved_words] counters agree with
   [moved_total]: a move to the object's own address is not a move. *)
let test_noop_move_not_counted () =
  let module T = Pc_telemetry in
  T.Registry.set_level T.Sink.Summary;
  T.Registry.reset ();
  Fun.protect
    ~finally:(fun () -> T.Registry.set_level T.Sink.Off)
    (fun () ->
      let moves = T.Registry.counter "heap.moves"
      and words = T.Registry.counter "heap.moved_words" in
      let h = Heap.create () in
      let a = Heap.alloc h ~addr:4 ~size:4 in
      Heap.move h a ~dst:4;
      Alcotest.(check int) "no-op move not counted" 0 (T.Counter.value moves);
      Alcotest.(check int) "no-op move moved no words" 0
        (T.Counter.value words);
      Heap.move h a ~dst:16;
      Alcotest.(check int) "real move counted" 1 (T.Counter.value moves);
      Alcotest.(check int) "counters match moved_total" (Heap.moved_total h)
        (T.Counter.value words))

let () =
  Alcotest.run "heap"
    (suite "imperative" (module Heap)
    @ suite "reference" (module Heap_ref)
    @ [
        ("printer", [ Alcotest.test_case "pp_event" `Quick test_pp_event ]);
        ( "counters",
          [
            Alcotest.test_case "no-op move" `Quick test_noop_move_not_counted;
          ] );
      ])
