open Pc_heap
open Pc_manager
open Pc_adversary

(* The view's iteration order. The adversaries' choices follow it, so
   it must be exactly the order of an [Oid.Table] (the [Hashtbl.Make]
   the view used to be built on) through every bucket doubling. The
   property keeps such a table as a shadow and compares the two orders
   after every step of a random alloc/free/ghosting run that grows
   past two resizes (more than 4096 present records). Every 1500th
   step is a [View.retain] instead, whose heap frees must come in the
   reverse of the shadow's order and after which [View.sum_present]
   must agree with the shadow. *)

(* Places every request at the frontier, first moving a random live
   object (when [move_every] says so) up past the high-water mark, so
   the view ghosts it. *)
let mover rng ~move_every =
  Manager.make ~name:"mover" (fun ctx ~size:_ ->
      let heap = Ctx.heap ctx in
      (if Random.State.int rng move_every = 0 && Heap.live_objects heap > 0
       then
         let live = Heap.live_list heap in
         let o = List.nth live (Random.State.int rng (List.length live)) in
         Heap.move heap o.oid ~dst:(Heap.high_water heap));
      Free_index.frontier (Ctx.free_index ctx))

let dummy = { View.oid = Oid.of_int 0; orig_addr = 0; size = 0; ghost = false }

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
  let same k r = if k >= n || expected.(k) != r then ok := false in
  let j = ref 0 in
  View.iter_present view (fun r ->
      same !j r;
      incr j);
  let k =
    View.fold_present view ~init:0 ~f:(fun k r ->
        same k r;
        k + 1)
  in
  !ok && !j = n && k = n

(* [View.retain]: the shadow's doomed records, in its order, and the
   oids the heap must free, in the reverse of that order. *)
let doomed_of shadow keep =
  Oid.Table.fold
    (fun _ (r : View.record) acc ->
      if keep r.orig_addr r.size then acc else r :: acc)
    shadow []
  |> List.rev

let run_case (seed, steps) =
  let rng = Random.State.make [| seed |] in
  let ok = ref true and peak = ref 0 in
  let program =
    Helpers.simple_program ~live_bound:(1 lsl 20) ~max_size:4 (fun driver ->
        let view = View.create driver in
        let shadow = Oid.Table.create 1024 and buf = ref [||] in
        let freed = ref [] in
        Heap.on_event (Driver.heap driver) (function
          | Heap.Free o -> freed := o.oid :: !freed
          | Heap.Alloc _ | Heap.Move _ -> ());
        (* present records, for picking a random one to free *)
        let pool = ref [||] and n = ref 0 in
        let push r =
          if !n = Array.length !pool then
            pool := Array.append !pool (Array.make (max 16 !n) r);
          !pool.(!n) <- r;
          incr n
        in
        let step_no = ref 0 in
        while !ok && !step_no < steps do
          incr step_no;
          if !step_no mod 1500 = 0 then begin
            (* drop about one record in 16 *)
            let keep addr size = (addr + size) land 15 <> 0 in
            let doomed = doomed_of shadow keep in
            let heap_frees =
              List.rev_map
                (fun (r : View.record) -> r.oid)
                (List.filter (fun (r : View.record) -> not r.ghost) doomed)
            in
            freed := [];
            View.retain view keep;
            ok := List.rev !freed = heap_frees;
            List.iter
              (fun (r : View.record) -> Oid.Table.remove shadow r.oid)
              doomed;
            n := 0;
            Oid.Table.iter (fun _ r -> push r) shadow;
            let weigh addr size = (7 * addr) + size in
            ok :=
              !ok
              && View.sum_present view weigh
                 = Oid.Table.fold
                     (fun _ (r : View.record) acc ->
                       acc + weigh r.orig_addr r.size)
                     shadow 0
          end
          else if !n = 0 || Random.State.int rng 16 > 0 then begin
            (* allocate fifteen times as often as free, so the count
               climbs *)
            let r = View.alloc view ~size:(1 + Random.State.int rng 4) in
            Oid.Table.replace shadow r.oid r;
            push r
          end
          else begin
            let i = Random.State.int rng !n in
            let r = !pool.(i) in
            !pool.(i) <- !pool.(!n - 1);
            decr n;
            View.free view r;
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
    QCheck.Test.fail_reportf "only %d records present; no second resize" !peak;
  !ok

let prop_hashtbl_order =
  QCheck.Test.make ~count:2 ~name:"iteration order equals Oid.Table's"
    QCheck.(pair small_nat (int_range 6000 6300))
    run_case

let () =
  Alcotest.run "view"
    [ ("order", [ QCheck_alcotest.to_alcotest prop_hashtbl_order ]) ]
