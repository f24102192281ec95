open Pc_heap

(* The kernel's hot paths allocate nothing on the minor heap: heap
   alloc/free/move with no listener attached (with a c-partial budget
   too, which the kernel feeds itself), free-index occupy and
   release, bitset updates and neighbour queries. Each test runs 10k
   operations of a kind on a structure whose capacity was grown
   beforehand (growing a large array goes to the major heap, but a
   small level array would not) and bounds the minor words the whole
   batch allocated by a small constant. The only allowance is the
   [Gap]/[Tail] box a fit query returns, which FREE_INDEX fixes. *)

let n = 10_000
let slack = 16
let far = 1 lsl 20
let rng () = Random.State.make [| 42 |]

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let check_small what words =
  if words > slack then
    Alcotest.failf "%s: %d minor words for %d operations" what words n

let permutation rng =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- x
  done;
  p

(* Objects in 8-word cells, sizes 1..7; each moves (sliding) to the top
   of its cell, then all are freed in random order. Every 256th cell
   holds a pin that stays, so no gap reaches 4096 words: the free index
   counts gaps that long in a hashtable, which does allocate. *)
let cell i = 8 * (i + (i / 255))

let heap_cycles h =
  let rng = rng () in
  Heap.free h (Heap.alloc h ~addr:far ~size:1);
  for k = 0 to n / 255 do
    ignore (Heap.alloc h ~addr:(8 * ((256 * k) + 255)) ~size:8 : Oid.t)
  done;
  let sizes = Array.init n (fun _ -> 1 + Random.State.int rng 7) in
  let order = permutation rng in
  let oids = Array.make n (Oid.of_int 0) in
  let cycle () =
    let a =
      minor_words (fun () ->
          for i = 0 to n - 1 do
            oids.(i) <- Heap.alloc h ~addr:(cell i) ~size:sizes.(i)
          done)
    in
    let m =
      minor_words (fun () ->
          for i = 0 to n - 1 do
            Heap.move h oids.(i) ~dst:(cell i + 8 - sizes.(i))
          done)
    in
    let f =
      minor_words (fun () ->
          for i = 0 to n - 1 do
            Heap.free h oids.(order.(i))
          done)
    in
    (a, m, f)
  in
  ignore (cycle ());
  let a, m, f = cycle () in
  check_small "Heap.alloc" a;
  check_small "Heap.move" m;
  check_small "Heap.free" f;
  Alcotest.(check int) "every move moved" (2 * Array.fold_left ( + ) 0 sizes)
    (Heap.moved_total h);
  Heap.check_invariants h

let test_heap () = heap_cycles (Heap.create ())

(* A heap made by [Ctx.create ~budget], as every run makes it. *)
let test_budgeted_heap () =
  let budget = Budget.create ~c:2.0 in
  let ctx = Pc_manager.Ctx.create ~budget ~live_bound:(4 * far) () in
  let h = Pc_manager.Ctx.heap ctx in
  (* recharges the quota far past the moves the cycles make *)
  ignore (Heap.alloc h ~addr:(2 * far) ~size:far : Oid.t);
  heap_cycles h;
  Alcotest.(check int) "the budget paid every move"
    ((Heap.allocated_total h / 2) - Heap.moved_total h)
    (Heap.available h)

(* First fit into a fragmented index, then release in random order. *)
let test_free_index () =
  let rng = rng () in
  let fi = Free_index.create () in
  Free_index.occupy fi ~addr:far ~len:1;
  Free_index.release fi ~addr:far ~len:1;
  let sizes = Array.init n (fun _ -> 1 + Random.State.int rng 16) in
  let order = permutation rng in
  let addrs = Array.make n 0 in
  (* every other 16-word cell held, so the fits below find gaps *)
  for i = 0 to (n / 2) - 1 do
    Free_index.occupy fi ~addr:(32 * i) ~len:16
  done;
  let fit =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          let size = sizes.(i) in
          let a =
            match Free_index.first_fit fi ~size with
            | Free_index.Gap a | Free_index.Tail a -> a
          in
          Free_index.occupy fi ~addr:a ~len:size;
          addrs.(i) <- a
        done)
  in
  let rel =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          let j = order.(i) in
          Free_index.release fi ~addr:addrs.(j) ~len:sizes.(j)
        done)
  in
  (* the fit result box is two words *)
  check_small "Free_index.first_fit + occupy" (fit - (2 * n));
  check_small "Free_index.release" rel;
  Free_index.check_invariants fi

let test_bitset () =
  let rng = rng () in
  let b = Bitset.create () in
  Bitset.ensure b far;
  let xs = Array.init n (fun _ -> Random.State.int rng far) in
  let sink = ref 0 in
  let add =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          Bitset.add b xs.(i)
        done)
  in
  let queries =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          sink := !sink + Bitset.succ b xs.(i) + Bitset.pred b (xs.(i) - 1)
        done)
  in
  let remove =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          Bitset.remove b xs.(i)
        done)
  in
  check_small "Bitset.add" add;
  check_small "Bitset.succ/pred" queries;
  check_small "Bitset.remove" remove;
  Alcotest.(check bool) "emptied" true (Bitset.is_empty b)

(* Unwritten chunks are shared between arrays: a write must go to a
   chunk of the array's own. *)
let test_chunked () =
  let a = Chunked.create ~fill:(-1) and b = Chunked.create ~fill:(-1) in
  Chunked.set a 5000 7;
  Alcotest.(check int) "written" 7 (Chunked.get a 5000);
  Alcotest.(check int) "same chunk, unwritten" (-1) (Chunked.get a 4999);
  Alcotest.(check int) "other array" (-1) (Chunked.get b 5000);
  Alcotest.(check int) "past the end" (-1) (Chunked.get a far);
  Alcotest.(check int) "negative" (-1) (Chunked.get a (-3));
  Alcotest.check_raises "negative write"
    (Invalid_argument "Chunked.set: negative index") (fun () ->
      Chunked.set a (-1) 0)

let () =
  Alcotest.run "kernel_alloc"
    [
      ( "minor words",
        [
          Alcotest.test_case "heap alloc/move/free" `Quick test_heap;
          Alcotest.test_case "budgeted heap alloc/move/free" `Quick
            test_budgeted_heap;
          Alcotest.test_case "free index fit/occupy/release" `Quick
            test_free_index;
          Alcotest.test_case "bitset add/succ/pred/remove" `Quick test_bitset;
        ] );
      ( "chunked",
        [ Alcotest.test_case "shared blank chunk" `Quick test_chunked ] );
    ]
