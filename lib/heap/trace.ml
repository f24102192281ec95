(* Recording and replaying heap event traces.

   A trace is a sequence of heap events in execution order. Replaying a
   trace onto a fresh heap reproduces the same final state and the same
   high-water mark, which gives tests a strong end-to-end check and
   makes adversarial executions inspectable offline. *)

type entry = { seq : int; event : Heap.event }

(* Recording rides on the heap's hot path, so events are stored
   unboxed: five ints per event ([tag; oid; addr/src; dst; size]) in a
   flat doubling int array. Retaining the event values themselves (in
   a list or pointer array) makes every event a minor-heap survivor
   the GC must promote, which costs an order of magnitude more than
   these plain int stores. *)
type t = { mutable buf : int array; mutable length : int }

let stride = 5
let tag_alloc = 0
let tag_free = 1
let tag_move = 2

let create () = { buf = [||]; length = 0 }

let push t event =
  let cap = Array.length t.buf in
  if stride * t.length = cap then begin
    let grown = Array.make (max (256 * stride) (2 * cap)) 0 in
    Array.blit t.buf 0 grown 0 cap;
    t.buf <- grown
  end;
  let base = stride * t.length in
  (match event with
  | Heap.Alloc o ->
      t.buf.(base) <- tag_alloc;
      t.buf.(base + 1) <- Oid.to_int o.oid;
      t.buf.(base + 2) <- o.addr;
      t.buf.(base + 4) <- o.size
  | Heap.Free o ->
      t.buf.(base) <- tag_free;
      t.buf.(base + 1) <- Oid.to_int o.oid;
      t.buf.(base + 2) <- o.addr;
      t.buf.(base + 4) <- o.size
  | Heap.Move m ->
      t.buf.(base) <- tag_move;
      t.buf.(base + 1) <- Oid.to_int m.oid;
      t.buf.(base + 2) <- m.src;
      t.buf.(base + 3) <- m.dst;
      t.buf.(base + 4) <- m.size);
  t.length <- t.length + 1

let event_at t i =
  let base = stride * i in
  let oid = Oid.of_int t.buf.(base + 1) in
  let size = t.buf.(base + 4) in
  match t.buf.(base) with
  | 0 -> Heap.Alloc { oid; addr = t.buf.(base + 2); size }
  | 1 -> Heap.Free { oid; addr = t.buf.(base + 2); size }
  | _ -> Heap.Move { oid; src = t.buf.(base + 2); dst = t.buf.(base + 3); size }

let record trace heap = Heap.on_event heap (fun event -> push trace event)

let of_events events =
  let t = create () in
  List.iter (push t) events;
  t

let length t = t.length
let entries t = List.init t.length (fun i -> { seq = i; event = event_at t i })

let iter t f =
  for i = 0 to t.length - 1 do
    f { seq = i; event = event_at t i }
  done

(* Replay does not assume the trace's oid sequence is dense: a
   trace-side oid maps to whatever oid the replay heap hands out for
   the corresponding Alloc. This is what lets a delta-debugger drop
   arbitrary event subsets and still replay the remainder — a
   reference to a dropped allocation (or any placement the heap
   rejects) is reported as [Error], never an exception, so "trace no
   longer well-formed" is an ordinary shrink rejection. Exceptions
   raised by heap-event listeners (oracles) or by a kernel heap's
   budget propagate. *)
exception Reject of string

let replay_onto (type h) (module H : Heap_intf.HEAP with type t = h) t
    (heap : h) =
  let map : (int, Oid.t) Hashtbl.t = Hashtbl.create 256 in
  let reject seq fmt =
    Fmt.kstr (fun s -> raise (Reject (Fmt.str "event %d: %s" seq s))) fmt
  in
  let lookup seq oid =
    match Hashtbl.find_opt map (Oid.to_int oid) with
    | Some o -> o
    | None -> reject seq "reference to unknown oid %d" (Oid.to_int oid)
  in
  try
    iter t (fun { seq; event } ->
        match event with
        | Heap.Alloc o -> (
            if Hashtbl.mem map (Oid.to_int o.oid) then
              reject seq "duplicate allocation of oid %d" (Oid.to_int o.oid);
            match H.alloc heap ~addr:o.addr ~size:o.size with
            | oid -> Hashtbl.replace map (Oid.to_int o.oid) oid
            | exception Invalid_argument msg -> reject seq "%s" msg)
        | Heap.Free o -> (
            let oid = lookup seq o.oid in
            match H.free heap oid with
            | () -> Hashtbl.remove map (Oid.to_int o.oid)
            | exception Invalid_argument msg -> reject seq "%s" msg)
        | Heap.Move m -> (
            let oid = lookup seq m.oid in
            match H.move heap oid ~dst:m.dst with
            | () -> ()
            | exception Invalid_argument msg -> reject seq "%s" msg));
    Ok ()
  with Reject msg -> Error msg

let replay t =
  let heap = Heap.create () in
  match replay_onto (module Heap) t heap with
  | Ok () -> Ok heap
  | Error msg -> Error msg

let pp_entry ppf { seq; event } = Fmt.pf ppf "%6d %a" seq Heap.pp_event event
let pp ppf t = Fmt.(list ~sep:(any "@\n") pp_entry) ppf (entries t)

(* Aggregate statistics over a trace: counts, volumes, allocation-size
   histogram (bucketed by floor log2), and object lifetimes measured
   in events. *)
type stats = {
  events : int;
  allocs : int;
  frees : int;
  moves : int;
  allocated_words : int;
  freed_words : int;
  moved_words : int;
  size_histogram : int array; (* index k: sizes in [2^k, 2^(k+1)) *)
  mean_lifetime : float; (* events between alloc and free *)
  immortal : int; (* allocated, never freed in the trace *)
}

let stats t =
  let allocs = ref 0 and frees = ref 0 and moves = ref 0 in
  let aw = ref 0 and fw = ref 0 and mw = ref 0 in
  let hist = Array.make 62 0 in
  let birth : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let lifetime_sum = ref 0 and lifetime_count = ref 0 in
  iter t (fun { seq; event } ->
      match event with
      | Heap.Alloc o ->
          incr allocs;
          aw := !aw + o.size;
          let b = Word.log2_floor o.size in
          hist.(b) <- hist.(b) + 1;
          Hashtbl.replace birth (Oid.to_int o.oid) seq
      | Heap.Free o ->
          incr frees;
          fw := !fw + o.size;
          (match Hashtbl.find_opt birth (Oid.to_int o.oid) with
          | Some b ->
              lifetime_sum := !lifetime_sum + (seq - b);
              incr lifetime_count;
              Hashtbl.remove birth (Oid.to_int o.oid)
          | None -> ())
      | Heap.Move m ->
          incr moves;
          mw := !mw + m.size);
  {
    events = t.length;
    allocs = !allocs;
    frees = !frees;
    moves = !moves;
    allocated_words = !aw;
    freed_words = !fw;
    moved_words = !mw;
    size_histogram = hist;
    mean_lifetime =
      (if !lifetime_count = 0 then 0.0
       else float_of_int !lifetime_sum /. float_of_int !lifetime_count);
    immortal = Hashtbl.length birth;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>events: %d (%d allocs, %d frees, %d moves)@,\
     words: %d allocated, %d freed, %d moved@,\
     mean lifetime: %.1f events; never freed: %d@,\
     sizes:" s.events s.allocs s.frees s.moves s.allocated_words
    s.freed_words s.moved_words s.mean_lifetime s.immortal;
  Array.iteri
    (fun k count ->
      if count > 0 then Fmt.pf ppf "@,  [%7d, %7d): %d" (1 lsl k) (2 lsl k) count)
    s.size_histogram;
  Fmt.pf ppf "@]"

(* A compact single-line serialization, one entry per line:
   "a <oid> <addr> <size>", "f <oid> <addr> <size>",
   "m <oid> <src> <dst> <size>". *)
let to_string t =
  let buf = Buffer.create (t.length * 16) in
  iter t (fun { event; _ } ->
      begin
        match event with
        | Heap.Alloc o ->
            Buffer.add_string buf
              (Printf.sprintf "a %d %d %d" (Oid.to_int o.oid) o.addr o.size)
        | Heap.Free o ->
            Buffer.add_string buf
              (Printf.sprintf "f %d %d %d" (Oid.to_int o.oid) o.addr o.size)
        | Heap.Move m ->
            Buffer.add_string buf
              (Printf.sprintf "m %d %d %d %d" (Oid.to_int m.oid) m.src m.dst
                 m.size)
      end;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let of_string s =
  let t = create () in
  let add = push t in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> ()
         | [ "a"; oid; addr; size ] ->
             add
               (Heap.Alloc
                  {
                    oid = Oid.of_int (int_of_string oid);
                    addr = int_of_string addr;
                    size = int_of_string size;
                  })
         | [ "f"; oid; addr; size ] ->
             add
               (Heap.Free
                  {
                    oid = Oid.of_int (int_of_string oid);
                    addr = int_of_string addr;
                    size = int_of_string size;
                  })
         | [ "m"; oid; src; dst; size ] ->
             add
               (Heap.Move
                  {
                    oid = Oid.of_int (int_of_string oid);
                    src = int_of_string src;
                    dst = int_of_string dst;
                    size = int_of_string size;
                  })
         | _ -> failwith ("Trace.of_string: bad line: " ^ line));
  t
