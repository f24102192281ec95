open Pc_heap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The budget is a rule over the heap's ledger: these cases drive a
   kernel heap and read the quota off its totals. *)
let heap_with budget =
  let h = Heap.create () in
  Heap.set_budget h budget;
  h

let quota h = Budget.quota (Heap.budget h) ~allocated:(Heap.allocated_total h)

let alloc_at_frontier h size =
  Heap.alloc h ~addr:(Free_index.frontier (Heap.free_index h)) ~size

let move_to_frontier h oid =
  Heap.move h oid ~dst:(Free_index.frontier (Heap.free_index h))

let test_quota_math () =
  let h = heap_with (Budget.create ~c:8.0) in
  check_int "empty quota" 0 (quota h);
  check_int "empty available" 0 (Heap.available h);
  check_bool "cannot move yet" false (Heap.can_move h 1);
  ignore (alloc_at_frontier h 90 : Oid.t);
  let ten = alloc_at_frontier h 10 in
  check_int "quota 100/8" 12 (quota h);
  check_int "available" 12 (Heap.available h);
  move_to_frontier h ten;
  check_int "available after move" 2 (Heap.available h);
  ignore (alloc_at_frontier h 60 : Oid.t);
  check_int "quota recharges" 20 (quota h);
  check_int "available recharged" 10 (Heap.available h);
  check_bool "compliant" true (Heap.available h >= 0)

(* The kernel raises after the move is done: it stays on the ledger, so
   the heap shows the overdraft the exception reports. *)
let test_exceeded () =
  let h = heap_with (Budget.create ~c:4.0) in
  ignore (alloc_at_frontier h 11 : Oid.t);
  let four = alloc_at_frontier h 4 in
  let one = alloc_at_frontier h 1 in
  move_to_frontier h four;
  (try
     move_to_frontier h one;
     Alcotest.fail "expected Exceeded"
   with Budget.Exceeded { requested; available } ->
     check_int "requested" 1 requested;
     check_int "available" 0 available);
  check_int "the rejected move is on the ledger" 5 (Heap.moved_total h);
  check_int "overdrawn by it" (-1) (Heap.available h)

let test_fractional_c () =
  let h = heap_with (Budget.create ~c:1.5) in
  ignore (alloc_at_frontier h 9 : Oid.t);
  check_int "quota floor(9/1.5)" 6 (quota h)

let test_unlimited () =
  let b = Budget.unlimited () in
  check_bool "is unlimited" true (Budget.is_unlimited b);
  let h = heap_with b in
  let o = alloc_at_frontier h 1_000 in
  for i = 1 to 1_000 do
    Heap.move h o ~dst:(if i land 1 = 1 then 1_000 else 0)
  done;
  check_int "moved" 1_000_000 (Heap.moved_total h);
  check_bool "never exceeded" true (Heap.available h >= 0)

let test_create_validation () =
  Alcotest.check_raises "c = 1 rejected" (Invalid_argument "Budget.create: need c > 1")
    (fun () -> ignore (Budget.create ~c:1.0))

(* Any interleaving of allocations and affordable moves keeps the
   heap compliant, and the quota equals floor(allocated/c). Words are
   allocated as one-word objects, so a move of [want] words is [want]
   one-word moves. *)
let prop_accounting =
  QCheck.Test.make ~name:"interleaved alloc/move accounting"
    QCheck.(triple (int_bound 100_000) (int_range 2 64) (int_range 1 200))
    (fun (seed, c, steps) ->
      let st = Random.State.make [| seed |] in
      let h = heap_with (Budget.create ~c:(float_of_int c)) in
      let objs = ref [||] and next = ref 0 in
      let allocated = ref 0 and moved = ref 0 in
      for _ = 1 to steps do
        if Random.State.bool st then begin
          let words = 1 + Random.State.int st 100 in
          objs :=
            Array.append !objs
              (Array.init words (fun _ -> alloc_at_frontier h 1));
          allocated := !allocated + words
        end
        else begin
          let want = 1 + Random.State.int st 20 in
          if Heap.can_move h want then begin
            for _ = 1 to want do
              move_to_frontier h !objs.(!next mod Array.length !objs);
              incr next
            done;
            moved := !moved + want
          end
        end
      done;
      Heap.available h >= 0
      && quota h = !allocated / c
      && Heap.available h = (!allocated / c) - !moved)

let () =
  Alcotest.run "budget"
    [
      ( "unit",
        [
          Alcotest.test_case "quota math" `Quick test_quota_math;
          Alcotest.test_case "exceeded" `Quick test_exceeded;
          Alcotest.test_case "fractional c" `Quick test_fractional_c;
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "validation" `Quick test_create_validation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_accounting ]);
    ]
