open Pc_heap

(* The free index is exercised with random occupy/release scripts and
   compared against a boolean-array reference model of the address
   space. *)

let span = 512

module Model = struct
  (* boolean occupancy array over [0, span): true = occupied *)
  let create () = Array.make span false
  let is_free m ~addr ~len =
    addr + len <= span
    && (let rec loop i = i >= addr + len || ((not m.(i)) && loop (i + 1)) in
        loop addr)

  let occupy m ~addr ~len =
    for i = addr to addr + len - 1 do
      m.(i) <- true
    done

  let release m ~addr ~len =
    for i = addr to addr + len - 1 do
      m.(i) <- false
    done

  (* Maximal free runs strictly below the highest occupied address+1. *)
  let frontier m =
    let rec loop i = if i = 0 then 0 else if m.(i - 1) then i else loop (i - 1) in
    loop span

  let first_fit m ~size =
    let f = frontier m in
    let rec loop a run =
      if a >= f then None
      else if m.(a) then loop (a + 1) 0
      else begin
        let run = run + 1 in
        if run = size then Some (a - size + 1) else loop (a + 1) run
      end
    in
    loop 0 0
end

(* Every case runs unchanged over the kernel ([Free_index]) and the
   reference ([Free_index_ref]). *)
module Cases (F : Heap_intf.FREE_INDEX) = struct
  let gaps t = Helpers.(collect (iter2 (F.iter_gaps t)))

  (* A random script of valid operations, executed against both. *)
  let run_script seed steps =
    let st = Random.State.make [| seed |] in
    let model = Model.create () in
    let index = F.create () in
    let live = ref [] in
    (* (addr, len) list *)
    let script_ok = ref true in
    for _ = 1 to steps do
      let do_alloc = Random.State.bool st || !live = [] in
      if do_alloc then begin
        let len = 1 + Random.State.int st 24 in
        let addr = Random.State.int st (span - len) in
        if Model.is_free model ~addr ~len then begin
          Model.occupy model ~addr ~len;
          F.occupy index ~addr ~len;
          live := (addr, len) :: !live
        end
      end
      else begin
        match !live with
        | [] -> ()
        | (addr, len) :: rest ->
            Model.release model ~addr ~len;
            F.release index ~addr ~len;
            live := rest
      end;
      F.check_invariants index;
      (* frontier agreement *)
      if F.frontier index <> Model.frontier model then
        script_ok := false;
      (* spot-check point queries *)
      let a = Random.State.int st span in
      let l = 1 + Random.State.int st 8 in
      if
        a + l <= Model.frontier model
        && F.is_free index ~addr:a ~len:l <> Model.is_free model ~addr:a ~len:l
      then script_ok := false;
      (* first-fit agreement below the frontier *)
      let size = 1 + Random.State.int st 16 in
      let ff_index =
        match F.first_fit index ~size with Gap a -> Some a | Tail _ -> None
      in
      let ff_model = Model.first_fit model ~size in
      if ff_index <> ff_model then script_ok := false
    done;
    !script_ok

  let prop_against_model name =
    QCheck.Test.make
      ~name:(Fmt.str "random occupy/release agrees with model (%s)" name)
      ~count:60
      QCheck.(pair (int_bound 100_000) (int_range 10 300))
      (fun (seed, steps) -> run_script seed steps)

  let test_tail_carving () =
    let t = F.create () in
    Alcotest.(check int) "initial frontier" 0 (F.frontier t);
    F.occupy t ~addr:10 ~len:5;
    Alcotest.(check int) "frontier jumps" 15 (F.frontier t);
    Alcotest.(check int) "gap created below" 1 (F.gap_count t);
    Alcotest.(check int) "gap words" 10 (F.free_below_frontier t);
    F.release t ~addr:10 ~len:5;
    Alcotest.(check int) "frontier retracts fully" 0 (F.frontier t);
    Alcotest.(check int) "no gaps" 0 (F.gap_count t)

  let test_coalescing () =
    let t = F.create () in
    F.occupy t ~addr:0 ~len:30;
    F.release t ~addr:5 ~len:5;
    F.release t ~addr:15 ~len:5;
    Alcotest.(check int) "two gaps" 2 (F.gap_count t);
    (* releasing the middle merges all three into one *)
    F.release t ~addr:10 ~len:5;
    Alcotest.(check int) "one gap" 1 (F.gap_count t);
    Alcotest.(check (list (pair int int))) "merged" [ (5, 15) ] (gaps t);
    F.check_invariants t

  let test_double_free_rejected () =
    let t = F.create () in
    F.occupy t ~addr:0 ~len:10;
    F.release t ~addr:2 ~len:3;
    Alcotest.check_raises "double free"
      (Invalid_argument "Free_index.release: extent already free") (fun () ->
        F.release t ~addr:2 ~len:3);
    Alcotest.check_raises "overlapping free"
      (Invalid_argument "Free_index.release: extent already free") (fun () ->
        F.release t ~addr:0 ~len:10)

  let test_occupy_occupied_rejected () =
    let t = F.create () in
    F.occupy t ~addr:0 ~len:10;
    Alcotest.check_raises "overlap below frontier"
      (Invalid_argument "Free_index.occupy: extent not free") (fun () ->
        F.occupy t ~addr:5 ~len:3)

  let test_fit_queries () =
    let t = F.create () in
    F.occupy t ~addr:0 ~len:100;
    F.release t ~addr:10 ~len:4;
    (* gap A: [10,14) *)
    F.release t ~addr:30 ~len:16;
    (* gap B: [30,46) *)
    F.release t ~addr:60 ~len:8;
    (* gap C: [60,68) *)
    (match F.first_fit t ~size:5 with
    | F.Gap a -> Alcotest.(check int) "first fit size 5" 30 a
    | F.Tail _ -> Alcotest.fail "expected gap");
    Alcotest.(check (option int)) "best fit size 5" (Some 60)
      (F.best_fit_gap t ~size:5);
    Alcotest.(check (option int)) "worst fit" (Some 30)
      (F.worst_fit_gap t ~size:5);
    Alcotest.(check (option int)) "from 40: fits in gap B's remainder"
      (Some 40)
      (F.first_fit_from t ~from:40 ~size:5);
    Alcotest.(check (option int)) "from 43: remainder too small, skip to C"
      (Some 60)
      (F.first_fit_from t ~from:43 ~size:5);
    (match F.first_aligned_fit t ~size:8 ~align:8 with
    | F.Gap a -> Alcotest.(check int) "aligned 8" 32 a
    | F.Tail _ -> Alcotest.fail "expected aligned gap");
    (* aligned fit that only the tail satisfies *)
    (match F.first_aligned_fit t ~size:16 ~align:16 with
    | F.Tail a -> Alcotest.(check int) "tail aligned" 112 a
    | F.Gap a -> Alcotest.failf "expected tail, got gap %d" a);
    Alcotest.(check (list (pair int int))) "largest gaps" [ (30, 16); (60, 8) ]
      (F.largest_gaps t ~k:2)

  (* A release whose extent starts exactly at an existing gap's start
     must be rejected as already free — the coalesce-left probe sees the
     gap as its own predecessor (s = addr, s + l > addr) — and likewise
     when the gap is found by the successor probe (release strictly
     below an existing gap it overlaps). A rejected release must leave
     the index untouched. *)
  let test_release_at_gap_start () =
    let t = F.create () in
    F.occupy t ~addr:0 ~len:20;
    F.release t ~addr:5 ~len:10;
    (* gap [5, 15) *)
    let snapshot () =
      (gaps t, F.frontier t, F.free_below_frontier t)
    in
    let before = snapshot () in
    let already_free =
      Invalid_argument "Free_index.release: extent already free"
    in
    Alcotest.check_raises "release at gap start" already_free (fun () ->
        F.release t ~addr:5 ~len:4);
    Alcotest.check_raises "release of whole gap" already_free (fun () ->
        F.release t ~addr:5 ~len:10);
    Alcotest.check_raises "release overlapping gap start from below" already_free
      (fun () -> F.release t ~addr:3 ~len:4);
    Alcotest.check_raises "release inside gap" already_free (fun () ->
        F.release t ~addr:7 ~len:2);
    Alcotest.(check (triple (list (pair int int)) int int))
      "rejected releases leave the index untouched" before (snapshot ());
    F.check_invariants t
end

(* The kernel's epoch (which the reference does not have) stands still
   only across an occupy that starts exactly at the frontier. *)
let test_epoch () =
  let t = Free_index.create () in
  let bumps f =
    let e = Free_index.epoch t in
    f ();
    Free_index.epoch t - e
  in
  let check name expected f =
    Alcotest.(check bool) name expected (bumps f > 0)
  in
  check "occupy at the frontier" false (fun () ->
      Free_index.occupy t ~addr:0 ~len:8);
  check "occupy past the frontier" true (fun () ->
      Free_index.occupy t ~addr:16 ~len:8);
  check "tail growth again" false (fun () ->
      Free_index.occupy t ~addr:24 ~len:8);
  check "occupy inside a gap" true (fun () ->
      Free_index.occupy t ~addr:10 ~len:2);
  check "release below the frontier" true (fun () ->
      Free_index.release t ~addr:0 ~len:8);
  check "release of the tail" true (fun () ->
      Free_index.release t ~addr:24 ~len:8);
  Alcotest.(check int) "tail release lowered the frontier" 24
    (Free_index.frontier t);
  Free_index.check_invariants t

let suite name (module F : Heap_intf.FREE_INDEX) =
  let module C = Cases (F) in
  let tc name f = Alcotest.test_case name `Quick f in
  ( ( Fmt.str "unit (%s)" name,
      [
        tc "tail carving" C.test_tail_carving;
        tc "coalescing" C.test_coalescing;
        tc "double free" C.test_double_free_rejected;
        tc "release at gap start" C.test_release_at_gap_start;
        tc "occupy occupied" C.test_occupy_occupied_rejected;
        tc "fit queries" C.test_fit_queries;
      ] ),
    QCheck_alcotest.to_alcotest (C.prop_against_model name) )

let () =
  let unit_kernel, prop_kernel = suite "imperative" (module Free_index) in
  let unit_ref, prop_ref = suite "reference" (module Free_index_ref) in
  Alcotest.run "free_index"
    [
      unit_kernel;
      ("epoch (kernel)", [ Alcotest.test_case "epoch" `Quick test_epoch ]);
      unit_ref;
      ("properties", [ prop_kernel; prop_ref ]);
    ]
