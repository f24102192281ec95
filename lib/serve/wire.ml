(* Length-prefixed framing over a stream socket.

   Each frame is a 4-byte big-endian payload length followed by the
   payload bytes. Framing is deliberately dumb — all structure lives
   one layer up in {!Protocol} — but it is the layer that faces
   arbitrary peers, so it is strict: a length above [max_frame] is
   rejected before any payload is read (a 4-byte garbage prefix cannot
   make the server allocate gigabytes), and EOF mid-frame is
   distinguished from EOF at a frame boundary (only the latter is a
   clean close). *)

let max_frame = 4 * 1024 * 1024

exception Closed
exception Oversized of int

let () =
  Printexc.register_printer (function
    | Oversized n ->
        Some
          (Printf.sprintf
             "wire: refused a %d-byte frame (max %d) — peer is speaking \
              garbage or a different protocol"
             n max_frame)
    | _ -> None)

let read_exactly fd buf off len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (off + !got) (len - !got) with
    | 0 -> raise Closed
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let rec read_some fd buf =
  match Unix.read fd buf 0 4 with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd buf

let recv fd =
  let hdr = Bytes.create 4 in
  match read_some fd hdr with
  | 0 -> None (* EOF at a frame boundary: clean close *)
  | n ->
      read_exactly fd hdr n (4 - n);
      let len =
        (Char.code (Bytes.get hdr 0) lsl 24)
        lor (Char.code (Bytes.get hdr 1) lsl 16)
        lor (Char.code (Bytes.get hdr 2) lsl 8)
        lor Char.code (Bytes.get hdr 3)
      in
      if len < 0 || len > max_frame then raise (Oversized len);
      let payload = Bytes.create len in
      read_exactly fd payload 0 len;
      (* EOF here IS an error: the peer died mid-frame *)
      Some (Bytes.unsafe_to_string payload)

let send fd s =
  let len = String.length s in
  if len > max_frame then raise (Oversized len);
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff));
  Bytes.blit_string s 0 buf 4 len;
  Pc_audit.Report.write_fully fd buf
