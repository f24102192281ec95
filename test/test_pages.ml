open Pc_heap
open Pc_manager

(* The page grid's indexes against naive models. A page's slot hint
   must never change which slot [find_free_slot] returns: after every
   random set or clear it must equal a plain scan from slot 0. The
   grid's page array and per-class bitsets must answer [lowest_avail],
   [highest_avail], [avail_count] and [fold] exactly as a sorted list
   of the model's pages does, after every random alloc or release, and
   each small allocation must land in the lowest free slot of its
   class's lowest available page. *)

let prop_slot_hint =
  QCheck.Test.make ~count:200 ~name:"find_free_slot equals a scan from 0"
    QCheck.(pair (int_range 1 200) small_nat)
    (fun (slots, seed) ->
      let rng = Random.State.make [| seed |] in
      let p = Pages.page ~base:0 ~class_:0 ~slots in
      let ok = ref true in
      for _ = 1 to 4 * slots do
        let i = Random.State.int rng slots in
        if Bytes.get p.slots i = '\000' && Random.State.int rng 3 > 0 then
          Pages.set_slot p i
        else ignore (Pages.clear_slot p i : bool);
        match Bytes.index p.slots '\000' with
        | expected -> ok := !ok && Pages.find_free_slot p = expected
        | exception Not_found -> ok := !ok && Pages.is_full p
      done;
      !ok)

(* The model: page base -> (class, occupancy), for the small objects
   on the grid. *)
type model_page = { cls : int; used : bool array }

let run_grid (page_log, seed) =
  let page_words = 1 lsl page_log in
  let rng = Random.State.make [| seed |] in
  let ctx = Ctx.create ~live_bound:(1 lsl 30) () in
  let heap = Ctx.heap ctx in
  let grid = Pages.create ~page_words in
  let model : (int, model_page) Hashtbl.t = Hashtbl.create 64 in
  let live = ref [||] and n = ref 0 in
  let ok = ref true in
  let expect b = ok := !ok && b in
  let avail_bases cls =
    Hashtbl.fold
      (fun base mp acc ->
        if mp.cls = cls && Array.exists not mp.used then base :: acc else acc)
      model []
    |> List.sort compare
  in
  let base_of = Option.map (fun (p : Pages.page) -> p.base) in
  let classes = page_log in
  let check () =
    for cls = 0 to classes - 1 do
      let bases = avail_bases cls in
      expect (base_of (Pages.lowest_avail grid cls) = List.nth_opt bases 0);
      expect
        (base_of (Pages.highest_avail grid cls)
        = List.nth_opt (List.rev bases) 0);
      expect (Pages.avail_count grid cls = List.length bases)
    done;
    let folded =
      List.rev (Pages.fold (fun p acc -> p.Pages.base :: acc) grid [])
    in
    let pages =
      List.sort compare (Hashtbl.fold (fun b _ acc -> b :: acc) model [])
    in
    expect (folded = pages)
  in
  for _ = 1 to 400 do
    if !n = 0 || Random.State.int rng 3 > 0 then begin
      let size = 1 + Random.State.int rng (2 * page_words) in
      let cls = Word.log2_ceil size in
      (* where the model says a small object must go *)
      let predicted =
        if cls >= page_log then None
        else
          match avail_bases cls with
          | base :: _ ->
              let mp = Hashtbl.find model base in
              let rec first i = if mp.used.(i) then first (i + 1) else i in
              Some (base + (first 0 lsl cls))
          | [] -> None
      in
      let addr =
        Pages.alloc grid ctx ~size ~at_tail:(fun _ tail -> tail)
      in
      (match predicted with Some a -> expect (a = addr) | None -> ());
      let oid = Heap.alloc heap ~addr ~size in
      if cls < page_log then begin
        let base = Word.align_down addr ~align:page_words in
        let mp =
          match Hashtbl.find_opt model base with
          | Some mp -> mp
          | None ->
              let mp =
                { cls; used = Array.make (page_words lsr cls) false }
              in
              Hashtbl.replace model base mp;
              mp
        in
        let i = (addr - base) lsr cls in
        expect (mp.cls = cls && not mp.used.(i));
        mp.used.(i) <- true
      end;
      if !n = Array.length !live then
        live := Array.append !live (Array.make (max 16 !n) oid);
      !live.(!n) <- oid;
      incr n
    end
    else begin
      let k = Random.State.int rng !n in
      let oid = !live.(k) in
      !live.(k) <- !live.(!n - 1);
      decr n;
      let o = Heap.get heap oid in
      Heap.free heap oid;
      let still = Pages.release grid o in
      let cls = Word.log2_ceil o.size in
      if cls < page_log then begin
        let base = Word.align_down o.addr ~align:page_words in
        let mp = Hashtbl.find model base in
        mp.used.((o.addr - base) lsr cls) <- false;
        if Array.exists Fun.id mp.used then
          expect (base_of still = Some base)
        else begin
          Hashtbl.remove model base;
          expect (still = None)
        end
      end
      else expect (still = None)
    end;
    check ()
  done;
  !ok

let prop_grid =
  QCheck.Test.make ~count:60 ~name:"grid indexes equal a sorted-list model"
    QCheck.(pair (int_range 2 6) small_nat)
    run_grid

let () =
  Alcotest.run "pages"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_slot_hint;
          QCheck_alcotest.to_alcotest prop_grid;
        ] );
    ]
