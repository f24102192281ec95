open Pc_heap
open Pc_manager
open Pc_adversary

(* The interaction model: driver-level enforcement of the live bound,
   move notifications, runner accounting, the view's ghost discipline,
   and random-workload determinism. *)

let simple_program = Helpers.simple_program

let test_live_bound_enforced () =
  let program =
    simple_program ~live_bound:16 ~max_size:8 (fun driver ->
        ignore (Driver.alloc driver ~size:8);
        ignore (Driver.alloc driver ~size:8);
        match Driver.alloc driver ~size:1 with
        | _ -> Alcotest.fail "expected Live_bound_exceeded"
        | exception Driver.Live_bound_exceeded { requested; live; bound } ->
            Alcotest.(check int) "requested" 1 requested;
            Alcotest.(check int) "live" 16 live;
            Alcotest.(check int) "bound" 16 bound)
  in
  ignore (Runner.run ~program ~manager:First_fit.manager ())

let test_free_unblocks () =
  let program =
    simple_program ~live_bound:16 ~max_size:16 (fun driver ->
        let a, _, _ = Driver.alloc driver ~size:16 in
        Driver.free driver a;
        ignore (Driver.alloc driver ~size:16))
  in
  let o = Runner.run ~program ~manager:First_fit.manager () in
  Alcotest.(check int) "allocated total" 32 o.allocated;
  Alcotest.(check int) "freed" 16 o.freed;
  Alcotest.(check int) "final live" 16 o.final_live

let test_move_notifications () =
  (* A manager that always compacts everything to 0 before placing at
     the frontier: the program must see the moves. *)
  let slide_manager =
    Manager.make ~name:"slide" (fun ctx ~size:_ ->
        let heap = Ctx.heap ctx in
        let cursor = ref 0 in
        Heap.iter_live heap (fun o ->
            if o.addr <> !cursor then Heap.move heap o.oid ~dst:!cursor;
            cursor := !cursor + o.size);
        Free_index.frontier (Ctx.free_index ctx))
  in
  let seen = ref [] in
  let program =
    simple_program ~live_bound:64 ~max_size:8 (fun driver ->
        let a, addr_a, moves0 = Driver.alloc driver ~size:8 in
        Alcotest.(check int) "first placement" 0 addr_a;
        Alcotest.(check int) "no moves yet" 0 (List.length moves0);
        Driver.free driver a;
        let _, _, _ = Driver.alloc driver ~size:4 in
        (* heap: one object at 4 after this alloc? no: slide moved
           nothing (heap was empty), placed at 0. *)
        let _, _, moves = Driver.alloc driver ~size:4 in
        seen := moves;
        ())
  in
  ignore (Runner.run ~program ~manager:slide_manager ());
  Alcotest.(check int) "no move needed when packed" 0 (List.length !seen);
  (* now force a move: leave a hole, then allocate *)
  let seen = ref [] in
  let program =
    simple_program ~live_bound:64 ~max_size:8 (fun driver ->
        let a, _, _ = Driver.alloc driver ~size:4 in
        let _b, _, _ = Driver.alloc driver ~size:4 in
        Driver.free driver a;
        (* hole at [0,4); b at [4,8): slide moves b to 0 *)
        let _, _, moves = Driver.alloc driver ~size:4 in
        seen := moves)
  in
  ignore (Runner.run ~program ~manager:slide_manager ());
  match !seen with
  | [ { Driver.src = 4; dst = 0; size = 4; _ } ] -> ()
  | l -> Alcotest.failf "unexpected moves (%d)" (List.length l)

(* Moves a manager makes in [on_free] are not the next request's: the
   driver reports only the moves made while serving a request. *)
let test_on_free_moves_unreported () =
  let mover =
    Manager.make ~name:"free-mover"
      ~on_free:(fun ctx _ ->
        let heap = Ctx.heap ctx in
        match Helpers.collect (Heap.iter_live heap) with
        | o :: _ -> Heap.move heap o.oid ~dst:(Heap.high_water heap + 8)
        | [] -> ())
      (fun ctx ~size:_ -> Free_index.frontier (Ctx.free_index ctx))
  in
  let seen = ref [] in
  let program =
    simple_program ~live_bound:64 ~max_size:8 (fun driver ->
        let a, _, _ = Driver.alloc driver ~size:4 in
        let _b, _, _ = Driver.alloc driver ~size:4 in
        Driver.free driver a;
        let _, _, moves = Driver.alloc driver ~size:4 in
        seen := moves)
  in
  let o = Runner.run ~program ~manager:mover () in
  Alcotest.(check int) "on_free moved b" 4 o.moved;
  Alcotest.(check int) "no move reported" 0 (List.length !seen)

(* An untraced run feeds the budget and the driver without a heap
   listener: the manager sees none on its heap. *)
let test_untraced_run_has_no_listener () =
  let listened = ref false in
  let probe =
    Manager.make ~name:"probe" (fun ctx ~size ->
        if Heap.has_listeners (Ctx.heap ctx) then listened := true;
        Manager.alloc First_fit.manager ctx ~size)
  in
  let program = Helpers.churn_program ~m:1024 ~seed:Helpers.churn_seed in
  ignore (Runner.run ~c:8.0 ~program ~manager:probe () : Runner.outcome);
  Alcotest.(check bool) "no listener" false !listened

(* [inner] with a no-op heap listener attached at its first request,
   and its free hook (if any) passed through. *)
let listened inner =
  let on_free =
    if Manager.has_free_hook inner then
      Some (fun () ctx o -> Manager.on_free inner ctx o)
    else None
  in
  Manager.stateful ~name:(Manager.name inner)
    ~init:(fun ctx -> Heap.on_event (Ctx.heap ctx) ignore)
    ?on_free
    (fun () ctx ~size -> Manager.alloc inner ctx ~size)

(* The view frees a step's doomed objects in ascending oid order when
   nothing can observe the order, and in reverse table order under a
   listener; both must reach the same outcome, for every registry
   manager against P_R, P_F and P_W. *)
let test_free_order_unobservable () =
  let module Spec = Pc_exec.Spec in
  let m = 1 lsl 14 in
  List.iter
    (fun manager ->
      List.iter
        (fun (spec : Spec.t) ->
          let untraced = Spec.run spec in
          let with_listener =
            Runner.run ?c:spec.c ~program:(Spec.build spec)
              ~manager:(listened (Spec.manager spec))
              ()
          in
          Alcotest.check Helpers.outcome (Spec.key spec) untraced
            with_listener)
        [
          Spec.robson ~manager ~m ~n:(1 lsl 8) ();
          Spec.pf ~c:16. ~manager ~m ~n:(1 lsl 9) ();
          Spec.pw ~c:8. ~manager ~m ~n:(1 lsl 8) ();
        ])
    (Registry.keys ())

(* [Spec.record] (what `pc trace` and `pc diagram` show) records the
   run whose outcome it reports: the outcome is [Spec.run]'s, and the
   trace replays to its totals — for P_R, which runs unbudgeted, as
   for P_F at its c. *)
let test_recorded_run_is_the_run () =
  let module Spec = Pc_exec.Spec in
  List.iter
    (fun (spec : Spec.t) ->
      let what = Spec.key spec in
      let o, trace = Spec.record spec in
      Alcotest.check Helpers.outcome what (Spec.run spec) o;
      match Trace.replay trace with
      | Ok h -> Helpers.check_replayed ~what o h
      | Error msg -> Alcotest.failf "%s: trace does not replay: %s" what msg)
    [
      Spec.robson ~manager:"compacting" ~m:1024 ~n:32 ();
      Spec.pf ~c:8. ~manager:"compacting" ~m:4096 ~n:64 ();
    ]

let test_runner_accounting () =
  let program =
    simple_program ~live_bound:100 ~max_size:10 (fun driver ->
        let xs =
          List.map (fun _ -> Driver.alloc driver ~size:10) [ 1; 2; 3 ]
        in
        match xs with
        | (a, _, _) :: _ -> Driver.free driver a
        | [] -> ())
  in
  let o = Runner.run ~c:8.0 ~program ~manager:First_fit.manager () in
  Alcotest.(check int) "allocated" 30 o.allocated;
  Alcotest.(check int) "freed" 10 o.freed;
  Alcotest.(check int) "final live" 20 o.final_live;
  Alcotest.(check int) "m recorded" 100 o.m;
  Alcotest.(check int) "n recorded" 10 o.n;
  Alcotest.(check bool) "c recorded" true (o.c = Some 8.0);
  Alcotest.(check bool) "moved nothing" true (o.moved = 0 && o.compliant)

let test_view_ghost_discipline () =
  (* When the manager moves a tracked object, the view frees it on the
     heap and keeps it as a ghost at its original address. *)
  let evict_manager =
    (* Places everything at the frontier, but first moves the oldest
       live object 100 words up — guaranteeing a move per alloc. *)
    Manager.make ~name:"evictor" (fun ctx ~size:_ ->
        let heap = Ctx.heap ctx in
        (match Helpers.collect (Heap.iter_live heap) with
        | o :: _ -> Heap.move heap o.oid ~dst:(Heap.high_water heap + 100)
        | [] -> ());
        Free_index.frontier (Ctx.free_index ctx))
  in
  let program =
    simple_program ~live_bound:64 ~max_size:8 (fun driver ->
        let view = View.create driver in
        let r1 = View.alloc view ~size:8 in
        Alcotest.(check bool) "r1 live" false (View.is_ghost view r1);
        let _r2 = View.alloc view ~size:8 in
        (* serving r2 moved r1: it must now be a ghost *)
        Alcotest.(check bool) "r1 ghosted" true (View.is_ghost view r1);
        Alcotest.(check int) "present = live + ghost" 16
          (View.present_words view);
        Alcotest.(check int) "heap live only r2" 8 (View.live_words view);
        (* freeing a ghost only drops it from the view *)
        View.free view r1;
        Alcotest.(check int) "present after ghost-free" 8
          (View.present_words view))
  in
  ignore (Runner.run ~program ~manager:evict_manager ())

let test_random_workload_deterministic () =
  let outcome seed =
    let program =
      Random_workload.program ~seed ~churn:500 ~m:2048
        ~dist:(Random_workload.Uniform { lo = 1; hi = 32 }) ~target_live:1024
        ()
    in
    Runner.run ~program ~manager:First_fit.manager ()
  in
  let a = outcome 5 and b = outcome 5 and c = outcome 6 in
  Alcotest.(check int) "same seed same HS" a.hs b.hs;
  Alcotest.(check int) "same seed same churn" a.allocated b.allocated;
  Alcotest.(check bool) "different seed differs" true
    (a.hs <> c.hs || a.allocated <> c.allocated)

let test_program_validation () =
  Alcotest.check_raises "n > M rejected"
    (Invalid_argument "Program.make: need n <= M") (fun () ->
      ignore (simple_program ~live_bound:8 ~max_size:16 (fun _ -> ())))

let () =
  Alcotest.run "runner_driver"
    [
      ( "driver",
        [
          Alcotest.test_case "live bound enforced" `Quick test_live_bound_enforced;
          Alcotest.test_case "free unblocks" `Quick test_free_unblocks;
          Alcotest.test_case "move notifications" `Quick test_move_notifications;
          Alcotest.test_case "on_free moves unreported" `Quick
            test_on_free_moves_unreported;
        ] );
      ( "runner",
        [
          Alcotest.test_case "accounting" `Quick test_runner_accounting;
          Alcotest.test_case "untraced run attaches no listener" `Quick
            test_untraced_run_has_no_listener;
          Alcotest.test_case "program validation" `Quick test_program_validation;
          Alcotest.test_case "free order unobservable" `Quick
            test_free_order_unobservable;
          Alcotest.test_case "recorded run is the run" `Quick
            test_recorded_run_is_the_run;
        ] );
      ( "view",
        [ Alcotest.test_case "ghost discipline" `Quick test_view_ghost_discipline ] );
      ( "random workload",
        [
          Alcotest.test_case "deterministic" `Quick
            test_random_workload_deterministic;
        ] );
    ]
