open Pc_heap

(* The chunk association as a [(int, chunk) Hashtbl.t] of records
   holding entry lists: the representation [Association] had before it
   moved to flat int arrays, kept only as an executable statement of
   the order contract. Every order P_F depends on ([chunk_indices],
   each chunk's [entries], [merge_step]'s unions) is whatever this
   table's iteration order gives; test_association runs random scripts
   against both and compares them after every operation. *)

type entry = { oid : Oid.t; obj_size : int; half : bool }

let entry_size e = if e.half then e.obj_size / 2 else e.obj_size

type chunk = {
  mutable entries : entry list;
  mutable sum : int; (* total entry size *)
  mutable middle : bool; (* member of the set E (Definition 4.12) *)
}

type t = {
  ell : int; (* density exponent: target density 2^-ell *)
  mutable chunk_log : int; (* current chunk size is 2^chunk_log *)
  mutable chunks : (int, chunk) Hashtbl.t; (* chunk index -> state *)
  (* Oids are dense sequential ints and [locs] is only ever looked up
     by key, so arrays indexed by oid serve. *)
  mutable locs : int list array; (* oid -> chunk indices *)
  mutable mark : int array; (* oid -> [merge_step]'s per-chunk stamp *)
  mutable mark_gen : int;
}

let create ~chunk_log ~ell =
  if ell < 1 then invalid_arg "Association.create: need l >= 1";
  {
    ell;
    chunk_log;
    chunks = Hashtbl.create 256;
    locs = Array.make 256 [];
    mark = Array.make 256 0;
    mark_gen = 0;
  }

let chunk_log t = t.chunk_log
let chunk_words t = 1 lsl t.chunk_log
let ell t = t.ell

let get_chunk t idx =
  match Hashtbl.find_opt t.chunks idx with
  | Some ch -> ch
  | None ->
      let ch = { entries = []; sum = 0; middle = false } in
      Hashtbl.add t.chunks idx ch;
      ch

let find_chunk t idx = Hashtbl.find_opt t.chunks idx
let sum t idx = match find_chunk t idx with Some ch -> ch.sum | None -> 0

let entries t idx =
  match find_chunk t idx with Some ch -> ch.entries | None -> []

let is_middle t idx =
  match find_chunk t idx with Some ch -> ch.middle | None -> false

let locs_of t oid =
  let i = Oid.to_int oid in
  if i < Array.length t.locs then t.locs.(i) else []

let add_loc t oid idx =
  let i = Oid.to_int oid in
  let n = Array.length t.locs in
  if i >= n then begin
    let n' = max (2 * n) (i + 1) in
    t.locs <- Array.append t.locs (Array.make (n' - n) []);
    t.mark <- Array.append t.mark (Array.make (n' - n) 0)
  end;
  t.locs.(i) <- idx :: t.locs.(i)

let remove_loc t oid idx =
  let rec remove_once = function
    | [] -> []
    | x :: rest -> if x = idx then rest else x :: remove_once rest
  in
  let i = Oid.to_int oid in
  t.locs.(i) <- remove_once t.locs.(i)

let add_entry t idx e =
  let ch = get_chunk t idx in
  ch.entries <- e :: ch.entries;
  ch.sum <- ch.sum + entry_size e;
  ch.middle <- false;
  add_loc t e.oid idx

(* Remove one entry (by oid and half-ness) from a chunk. *)
let remove_entry t idx (e : entry) =
  let ch = get_chunk t idx in
  let rec remove_once = function
    | [] -> invalid_arg "Association.remove_entry: entry not found"
    | x :: rest ->
        if Oid.equal x.oid e.oid && x.half = e.half then rest
        else x :: remove_once rest
  in
  ch.entries <- remove_once ch.entries;
  ch.sum <- ch.sum - entry_size e;
  remove_loc t e.oid idx

let assoc_whole t oid ~obj_size ~chunk =
  add_entry t chunk { oid; obj_size; half = false }

let assoc_halves t oid ~obj_size ~chunk1 ~chunk2 =
  if chunk1 = chunk2 then assoc_whole t oid ~obj_size ~chunk:chunk1
  else begin
    add_entry t chunk1 { oid; obj_size; half = true };
    add_entry t chunk2 { oid; obj_size; half = true }
  end

let set_middle t idx =
  let ch = get_chunk t idx in
  if ch.entries <> [] then
    invalid_arg "Association.set_middle: chunk has entries";
  ch.middle <- true

(* Reset a chunk for reuse by a fresh allocation (Algorithm 1 line
   14): drop every remaining entry (they are ghosts — a live object
   associated with a chunk intersects it, and a reused chunk holds no
   live words). Returns the oids that lost their last entry, i.e. the
   ghosts that cease to exist. *)
let reset_chunk t idx =
  match find_chunk t idx with
  | None -> []
  | Some ch ->
      let vanished =
        List.filter_map
          (fun e ->
            remove_loc t e.oid idx;
            if locs_of t e.oid = [] then Some e.oid else None)
          ch.entries
      in
      ch.entries <- [];
      ch.sum <- 0;
      ch.middle <- false;
      vanished

(* Migrate a half entry out of [from_idx] to the chunk holding the
   object's other half (Algorithm 1 line 13: "when a half object is
   freed, associate it with the chunk that contains the other half").
   If both halves meet they merge into a whole entry. Returns the
   destination chunk, or [None] when no other half exists (the object
   is a ghost whose other chunk was reused): the entry then simply
   disappears, and the caller should drop the object if this was its
   last entry. *)
let migrate_half t ~from_idx (e : entry) =
  if not e.half then invalid_arg "Association.migrate_half: whole entry";
  remove_entry t from_idx e;
  match locs_of t e.oid with
  | [] -> None
  | [ other ] ->
      (* The other half is at [other]: merge into a whole entry. *)
      remove_entry t other e;
      add_entry t other { e with half = false };
      Some other
  | _ :: _ :: _ ->
      invalid_arg "Association.migrate_half: more than two locations"

(* Step change (Algorithm 1 line 12): chunk size doubles, pairs of
   chunks merge, entry sets take unions; two halves of one object
   landing in the same merged chunk become a whole entry. The middle
   set E empties (Definition 4.12). *)
let merge_step t =
  let merged = Hashtbl.create (Hashtbl.length t.chunks) in
  Hashtbl.iter
    (fun idx (ch : chunk) ->
      let nidx = idx / 2 in
      let nch =
        match Hashtbl.find_opt merged nidx with
        | Some nch -> nch
        | None ->
            let nch = { entries = []; sum = 0; middle = false } in
            Hashtbl.add merged nidx nch;
            nch
      in
      List.iter
        (fun e ->
          nch.entries <- e :: nch.entries;
          nch.sum <- nch.sum + entry_size e)
        ch.entries)
    t.chunks;
  (* Merge half-pairs that now share a chunk, and rebuild [locs] from
     the merged entries. *)
  Array.fill t.locs 0 (Array.length t.locs) [];
  Hashtbl.iter
    (fun nidx (nch : chunk) ->
      (* Stamp each half's oid once per half seen in this chunk, then
         rebuild in one pass: a pair's first half is dropped and its
         second becomes the whole entry — the same list the
         remove-on-second-encounter fold produced, without the
         quadratic mid-list removal. An object has at most two half
         entries in total, so stamps [one], [two] and [dropped] (its
         first half is gone) say all there is. *)
      let one = t.mark_gen + 1 in
      let two = one + 1 and dropped = one + 2 in
      t.mark_gen <- dropped;
      List.iter
        (fun (e : entry) ->
          if e.half then begin
            let i = Oid.to_int e.oid in
            t.mark.(i) <- (if t.mark.(i) = one then two else one)
          end)
        nch.entries;
      let merged_entries =
        List.fold_left
          (fun acc (e : entry) ->
            if not e.half then e :: acc
            else begin
              let i = Oid.to_int e.oid in
              if t.mark.(i) = two then begin
                t.mark.(i) <- dropped;
                acc
              end
              else if t.mark.(i) = dropped then { e with half = false } :: acc
              else e :: acc
            end)
          [] nch.entries
      in
      nch.entries <- merged_entries;
      (* sums are unchanged by half-merging: two halves = one whole *)
      List.iter
        (fun e ->
          let i = Oid.to_int e.oid in
          t.locs.(i) <- nidx :: t.locs.(i))
        merged_entries)
    merged;
  t.chunks <- merged;
  t.chunk_log <- t.chunk_log + 1

let chunk_indices t = Hashtbl.fold (fun idx _ acc -> idx :: acc) t.chunks []
let chunk_count t = Hashtbl.length t.chunks

(* The potential function u(t) of Definition 4.4:
   u = sum_D u_D - n/4, with u_D = 2^i for middle chunks and
   min(2^ell * sum_D, 2^i) otherwise. In the paper n/4 is the largest
   chunk ever (the last chunk may stick out of the heap); we take the
   same deduction. *)
let potential t ~n =
  let cw = chunk_words t in
  let total = ref 0 in
  Hashtbl.iter
    (fun _ (ch : chunk) ->
      let ud =
        if ch.middle then cw
        else min ((1 lsl t.ell) * ch.sum) cw
      in
      total := !total + ud)
    t.chunks;
  !total - (n / 4)

let check_invariants t =
  Hashtbl.iter
    (fun idx (ch : chunk) ->
      let s = List.fold_left (fun acc e -> acc + entry_size e) 0 ch.entries in
      if s <> ch.sum then failwith "Association: chunk sum drift";
      if ch.middle && ch.entries <> [] then
        failwith "Association: middle chunk with entries";
      List.iter
        (fun e ->
          if not (List.mem idx (locs_of t e.oid)) then
            failwith "Association: missing loc back-reference")
        ch.entries)
    t.chunks;
  Array.iteri
    (fun oid idxs ->
      if List.length idxs > 2 then failwith "Association: more than 2 locs";
      List.iter
        (fun idx ->
          let present =
            List.exists
              (fun e -> Oid.to_int e.oid = oid)
              (entries t idx)
          in
          if not present then failwith "Association: stale loc")
        idxs)
    t.locs
