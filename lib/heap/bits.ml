(* Single-word bit tricks for the 32-bit masks of the radix structures
   ([Bitset], [Free_index]). Masks are stored in OCaml [int]s with
   only the low 32 bits used, so all intermediates stay well inside the
   63-bit native range. *)

let debruijn32 = 0x077CB531

(* ntz_table.((((pow2 i) * debruijn32) lsr 27) land 31) = i. The
   multiply may carry past bit 31, but the table index reads bits
   27..31 only, which agree with the 32-bit-truncated product. *)
let ntz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.((((1 lsl i) * debruijn32) lsr 27) land 31) <- i
  done;
  t

(* Index of the lowest set bit. [v] must be non-zero and fit in 32
   bits. *)
let[@inline] ntz32 v =
  Array.unsafe_get ntz_table ((((v land -v) * debruijn32) lsr 27) land 31)

(* Index of the highest set bit. [v] must be non-zero and fit in 32
   bits. *)
let[@inline] msb32 v =
  let r = ref 0 and v = ref v in
  if !v land 0xFFFF0000 <> 0 then begin
    r := 16;
    v := !v lsr 16
  end;
  if !v land 0xFF00 <> 0 then begin
    r := !r + 8;
    v := !v lsr 8
  end;
  if !v land 0xF0 <> 0 then begin
    r := !r + 4;
    v := !v lsr 4
  end;
  if !v land 0xC <> 0 then begin
    r := !r + 2;
    v := !v lsr 2
  end;
  if !v land 0x2 <> 0 then incr r;
  !r
