open Pc_heap
open Pc_manager
open Pc_adversary

(* The view's iteration order. The adversaries' choices follow it, so
   it must be exactly the order of an [Oid.Table] (the [Hashtbl.Make]
   the view used to be built on) through every bucket doubling. The
   property keeps such a table as a shadow and compares the two after
   every step of a random alloc/free/ghosting run that grows past two
   resizes (more than 4096 present objects): the order, each object's
   address and size, and whether it is a ghost. The shadow learns its
   ghosts from the heap's [Move] events, not from the view. Every
   1500th step is a [View.retain] instead, whose heap frees must come
   in the reverse of the shadow's order and after which
   [View.sum_present] must agree with the shadow; 750 steps later
   comes a [View.drop_ghosts], which must emit no heap event. *)

type shadow_obj = { oid : Oid.t; addr : int; size : int; mutable ghost : bool }

(* Places every request at the frontier, first moving a random live
   object (when [move_every] says so) up past the high-water mark, so
   the view ghosts it. *)
let mover rng ~move_every =
  Manager.make ~name:"mover" (fun ctx ~size:_ ->
      let heap = Ctx.heap ctx in
      (if Random.State.int rng move_every = 0 && Heap.live_objects heap > 0
       then
         let live = Helpers.collect (Heap.iter_live heap) in
         let o = List.nth live (Random.State.int rng (List.length live)) in
         Heap.move heap o.oid ~dst:(Heap.high_water heap));
      Free_index.frontier (Ctx.free_index ctx))

let dummy = { oid = Oid.of_int 0; addr = 0; size = 0; ghost = false }

(* [buf] is scratch for the shadow's order. *)
let check_order view shadow buf =
  let n = Oid.Table.length shadow in
  if Array.length !buf < n then buf := Array.make (2 * n) dummy;
  let expected = !buf in
  let i = ref 0 in
  Oid.Table.iter
    (fun _ r ->
      expected.(!i) <- r;
      incr i)
    shadow;
  let ok = ref (View.present_count view = n) in
  let j = ref 0 in
  View.iter_present view (fun oid addr size ->
      (if !j >= n then ok := false
       else
         let r = expected.(!j) in
         if
           r.oid <> oid || r.addr <> addr || r.size <> size
           || View.is_ghost view oid <> r.ghost
         then ok := false);
      incr j);
  !ok && !j = n

let sum_shadow shadow f =
  Oid.Table.fold (fun _ r acc -> acc + f r.addr r.size) shadow 0

(* [View.retain]: the shadow's doomed objects, in its order. *)
let doomed_of shadow keep =
  Oid.Table.fold
    (fun _ r acc -> if keep r.oid r.addr r.size then acc else r :: acc)
    shadow []
  |> List.rev

let run_case (seed, steps) =
  let rng = Random.State.make [| seed |] in
  let ok = ref true and peak = ref 0 in
  let program =
    Helpers.simple_program ~live_bound:(1 lsl 20) ~max_size:4 (fun driver ->
        let view = View.create driver in
        let shadow = Oid.Table.create 1024 and buf = ref [||] in
        let freed = ref [] and events = ref 0 in
        Heap.on_event (Driver.heap driver) (fun ev ->
            incr events;
            match ev with
            | Heap.Free o -> freed := o.oid :: !freed
            | Heap.Move m -> (
                match Oid.Table.find_opt shadow m.oid with
                | Some r -> r.ghost <- true
                | None -> ())
            | Heap.Alloc _ -> ());
        (* present objects, for picking a random one to free *)
        let pool = ref [||] and n = ref 0 in
        let push r =
          if !n = Array.length !pool then
            pool := Array.append !pool (Array.make (max 16 !n) r);
          !pool.(!n) <- r;
          incr n
        in
        let refill_pool () =
          n := 0;
          Oid.Table.iter (fun _ r -> push r) shadow
        in
        let weigh addr size = (7 * addr) + size in
        let step_no = ref 0 in
        while !ok && !step_no < steps do
          incr step_no;
          if !step_no mod 1500 = 0 then begin
            (* drop about one object in 16 *)
            let keep _ addr size = (addr + size) land 15 <> 0 in
            let doomed = doomed_of shadow keep in
            let heap_frees =
              List.rev_map
                (fun r -> r.oid)
                (List.filter (fun r -> not r.ghost) doomed)
            in
            freed := [];
            View.retain view keep;
            ok := List.rev !freed = heap_frees;
            List.iter (fun r -> Oid.Table.remove shadow r.oid) doomed;
            refill_pool ();
            ok := !ok && View.sum_present view weigh = sum_shadow shadow weigh
          end
          else if !step_no mod 1500 = 750 then begin
            let before = !events in
            View.drop_ghosts view;
            Oid.Table.filter_map_inplace
              (fun _ r -> if r.ghost then None else Some r)
              shadow;
            refill_pool ();
            ok :=
              !events = before
              && View.sum_present view weigh = sum_shadow shadow weigh
          end
          else if !n = 0 || Random.State.int rng 16 > 0 then begin
            (* allocate fifteen times as often as free, so the count
               climbs *)
            let oid = View.alloc view ~size:(1 + Random.State.int rng 4) in
            let o = Heap.get (Driver.heap driver) oid in
            let r = { oid; addr = o.addr; size = o.size; ghost = false } in
            Oid.Table.replace shadow oid r;
            push r
          end
          else begin
            let i = Random.State.int rng !n in
            let r = !pool.(i) in
            !pool.(i) <- !pool.(!n - 1);
            decr n;
            View.free view r.oid;
            Oid.Table.remove shadow r.oid
          end;
          peak := max !peak (View.present_count view);
          ok := !ok && check_order view shadow buf
        done)
  in
  ignore
    (Runner.run ~program ~manager:(mover rng ~move_every:8) ()
      : Runner.outcome);
  if !ok && !peak <= 4096 then
    QCheck.Test.fail_reportf "only %d objects present; no second resize" !peak;
  !ok

let prop_hashtbl_order =
  QCheck.Test.make ~count:2 ~name:"iteration order equals Oid.Table's"
    QCheck.(pair small_nat (int_range 6000 6300))
    run_case

(* What a run leaves: the view (its order, each object's address, size
   and ghost flag, and its present words) and the heap (its live
   objects, gaps and frontier). *)
let snapshot view heap =
  let objs = ref [] in
  View.iter_present view (fun oid addr size ->
      objs := (oid, addr, size, View.is_ghost view oid) :: !objs);
  let free = Heap.free_index heap in
  ( List.rev !objs,
    View.present_words view,
    Helpers.collect (Heap.iter_live heap),
    Helpers.(collect (iter2 (Free_index.iter_gaps free))),
    Free_index.frontier free )

(* The random alloc/free/ghost script above, without its shadow, with
   or without a (no-op) heap listener. Without one, [View.retain]
   frees in ascending oid order; with one, in reverse table order. The
   result is the snapshot after every retain and at the end. *)
let run_script ~listen (seed, steps) =
  let rng = Random.State.make [| seed |] in
  let snaps = ref [] in
  let program =
    Helpers.simple_program ~live_bound:(1 lsl 20) ~max_size:4 (fun driver ->
        let view = View.create driver and heap = Driver.heap driver in
        if listen then Heap.on_event heap ignore;
        if Driver.frees_commute driver = listen then
          Alcotest.fail "frees_commute disagrees with the listener";
        let pool = ref [||] and n = ref 0 in
        let push oid =
          if !n = Array.length !pool then
            pool := Array.append !pool (Array.make (max 16 !n) oid);
          !pool.(!n) <- oid;
          incr n
        in
        let refill_pool () =
          n := 0;
          View.iter_present view (fun oid _ _ -> push oid)
        in
        for step_no = 1 to steps do
          if step_no mod 1500 = 0 then begin
            View.retain view (fun _ addr size -> (addr + size) land 15 <> 0);
            snaps := snapshot view heap :: !snaps;
            refill_pool ()
          end
          else if step_no mod 1500 = 750 then begin
            View.drop_ghosts view;
            refill_pool ()
          end
          else if !n = 0 || Random.State.int rng 16 > 0 then
            push (View.alloc view ~size:(1 + Random.State.int rng 4))
          else begin
            let i = Random.State.int rng !n in
            let oid = !pool.(i) in
            !pool.(i) <- !pool.(!n - 1);
            decr n;
            View.free view oid
          end
        done;
        snaps := snapshot view heap :: !snaps)
  in
  ignore
    (Runner.run ~program ~manager:(mover rng ~move_every:8) ()
      : Runner.outcome);
  List.rev !snaps

let prop_free_order_unobservable =
  QCheck.Test.make ~count:2 ~name:"retain's two free orders agree"
    QCheck.(pair small_nat (int_range 6000 6300))
    (fun case -> run_script ~listen:false case = run_script ~listen:true case)

(* The view keeps no record per object, so alloc and free promote
   nothing: 10k allocs, a forced minor collection while all of them
   are present, then 10k frees, after an earlier batch of the same
   kind grew the view's and the heap's cell directories (their chunks
   are too large for the minor heap). A record per alloc, written into
   an old array, would promote 10k records. *)
let n = 10_000
let slack = 16

let promoted_words f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).promoted_words in
  f ();
  Gc.minor ();
  int_of_float ((Gc.quick_stat ()).promoted_words -. before)

let test_alloc_free_promote_nothing () =
  let ctx = Ctx.create ~live_bound:(2 * n) () in
  let driver = Driver.create ctx First_fit.manager in
  let view = View.create driver in
  let oids = Array.make n (Oid.of_int 0) in
  let batch () =
    for i = 0 to n - 1 do
      oids.(i) <- View.alloc view ~size:1
    done;
    Gc.minor ();
    for i = 0 to n - 1 do
      View.free view oids.(i)
    done
  in
  batch ();
  let words = promoted_words batch in
  if words > slack then
    Alcotest.failf "View.alloc/free: %d words promoted for %d objects" words n;
  Alcotest.(check int) "nothing left present" 0 (View.present_count view)

let () =
  Alcotest.run "view"
    [
      ( "order",
        [
          QCheck_alcotest.to_alcotest prop_hashtbl_order;
          QCheck_alcotest.to_alcotest prop_free_order_unobservable;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "alloc and free promote nothing" `Quick
            test_alloc_free_promote_nothing;
        ] );
    ]
