(* A growable int array kept in chunks of [len] ints behind a small
   directory. Growing never copies: a flat array that doubles leaves
   its old copy for the major GC, and at the kernel's sizes (tens of
   megabytes per run, several arrays per heap) that floating garbage
   shows up as peak RSS. Every chunk not yet written is one shared
   read-only chunk of the fill value, so a read anywhere is safe and
   sees [fill], and memory is allocated a chunk at a time, on the
   first write into its range. *)

let bits = 12
let len = 1 lsl bits

type t = { mutable dir : int array array; blank : int array; fill : int }

let zeros = Array.make len 0
let minus_ones = Array.make len (-1)

let create ~fill =
  let blank =
    if fill = 0 then zeros
    else if fill = -1 then minus_ones
    else Array.make len fill
  in
  { dir = [||]; blank; fill }

let[@inline] get t i =
  let d = i lsr bits in
  if d < Array.length t.dir then
    Array.unsafe_get (Array.unsafe_get t.dir d) (i land (len - 1))
  else t.fill

(* The chunk for directory slot [d], made writable. *)
let[@inline never] own t d =
  if d >= Array.length t.dir then begin
    let n = ref (max 16 (2 * Array.length t.dir)) in
    while d >= !n do
      n := 2 * !n
    done;
    let dir = Array.make !n t.blank in
    Array.blit t.dir 0 dir 0 (Array.length t.dir);
    t.dir <- dir
  end;
  let c = Array.make len t.fill in
  t.dir.(d) <- c;
  c

let[@inline] set t i v =
  if i < 0 then invalid_arg "Chunked.set: negative index";
  let d = i lsr bits in
  let c =
    if d < Array.length t.dir && Array.unsafe_get t.dir d != t.blank then
      Array.unsafe_get t.dir d
    else own t d
  in
  Array.unsafe_set c (i land (len - 1)) v
