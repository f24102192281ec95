open Pc_adversary
open Pc_json

(* Crash-safe sweep journal: one fsynced JSON line per resolved job
   (cache hits included), appended to <dir>/<sweep-digest>.journal.
   A killed sweep resumes by reloading the journal and re-executing
   only the jobs absent from it (and from the result cache).

   The journal is identified by a digest over the ordered spec list,
   so a resume with a different sweep opens a different file and never
   replays foreign outcomes. Each line re-states the spec's canonical
   key, which is checked again on lookup — a digest collision inside a
   journal is detected, not served.

   Durability: each line is written with a single [write] and fsynced
   before [record] returns, so a line is either fully present or
   absent; the loader tolerates (and drops) a truncated final line
   from a writer killed mid-append. Determinism: outcomes round-trip
   through the same bit-exact JSON as the result cache, so a resumed
   sweep's results are byte-identical to an uninterrupted run's. *)

let src = Logs.Src.create "pc.checkpoint" ~doc:"sweep journal"

module Log = (val Logs.src_log src : Logs.LOG)
module T = Pc_telemetry

(* A torn tail (writer killed mid-append) is expected after any kill;
   surfacing it as a counter lets `pc report` distinguish "journals
   are healthy" from "every resume is repairing damage". *)
let torn_tail_c = T.Registry.counter "checkpoint.torn_tail"

type entry = { key : string; result : (Runner.outcome, string) result }

type t = {
  path : string;
  fd : Unix.file_descr;
  mutex : Mutex.t;
  entries : (string, entry) Hashtbl.t; (* digest -> journaled outcome *)
  loaded : int;
  repaired : int; (* torn-tail bytes truncated away at open time *)
}

let journal_format = 1

let default_dir ~cache_dir = Filename.concat cache_dir "sweeps"

let sweep_digest specs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Printf.sprintf "pc-journal-%d" journal_format
          :: List.map Spec.digest specs)))

let path ~dir specs = Filename.concat dir (sweep_digest specs ^ ".journal")

(* ------------------------------------------------------------------ *)
(* Line (de)serialisation                                             *)

let line_of_entry ~digest { key; result } =
  let fields =
    [ ("digest", Json.String digest); ("key", Json.String key) ]
    @
    match result with
    | Ok o -> [ ("ok", Cache.outcome_to_json o) ]
    | Error msg -> [ ("error", Json.String msg) ]
  in
  Json.to_string (Json.Obj fields) ^ "\n"

let entry_of_line line =
  match Json.of_string line with
  | exception _ -> None
  | j -> (
      match (Json.member "digest" j, Json.member "key" j) with
      | Some (Json.String digest), Some (Json.String key) -> (
          match (Json.member "ok" j, Json.member "error" j) with
          | Some o, None -> (
              match Cache.outcome_of_json o with
              | outcome -> Some (digest, { key; result = Ok outcome })
              | exception _ -> None)
          | None, Some (Json.String msg) ->
              Some (digest, { key; result = Error msg })
          | _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)

(* WAL-style recovery: records are trusted up to the first one that
   fails to parse; everything from that point on — typically a single
   line torn by a writer killed mid-append — is a damaged tail. The
   caller truncates the file back to [valid_end] so the journal is
   physically repaired, not just skipped over: later appends never
   concatenate onto half a record. *)
let load_entries path =
  if not (Sys.file_exists path) then (Hashtbl.create 16, 0, 0, 0)
  else begin
    let content =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length content in
    let entries = Hashtbl.create 64 in
    let loaded = ref 0 in
    let valid_end = ref 0 in
    let pos = ref 0 in
    (try
       while !pos < len do
         let nl =
           match String.index_from content !pos '\n' with
           | nl -> nl
           | exception Not_found -> raise Exit (* unterminated tail *)
         in
         let line = String.sub content !pos (nl - !pos) in
         match entry_of_line line with
         | Some (digest, entry) ->
             (* Last write wins; duplicates are harmless (a job
                journaled twice across a kill boundary records the
                same pure outcome). *)
             if not (Hashtbl.mem entries digest) then incr loaded;
             Hashtbl.replace entries digest entry;
             valid_end := nl + 1;
             pos := nl + 1
         | None -> raise Exit (* garbled record: damaged from here *)
       done
     with Exit -> ());
    (entries, !loaded, !valid_end, len - !valid_end)
  end

let open_ ?(resume = false) ~dir specs =
  Pc_audit.Report.mkdir_p dir;
  let path = path ~dir specs in
  let entries, loaded, valid_end, repaired =
    if resume then load_entries path else (Hashtbl.create 64, 0, 0, 0)
  in
  let flags =
    if resume then Unix.[ O_WRONLY; O_APPEND; O_CREAT ]
    else Unix.[ O_WRONLY; O_TRUNC; O_CREAT ]
  in
  let fd = Unix.openfile path flags 0o644 in
  if repaired > 0 then begin
    (* Truncate the torn tail away before the first append: the
       resumed journal holds exactly its valid records. *)
    Unix.ftruncate fd valid_end;
    T.Counter.incr torn_tail_c;
    Log.warn (fun k ->
        k "journal %s: truncated a torn tail (%d byte(s)) left by a killed \
           writer; %d valid record(s) kept"
          path repaired loaded)
  end;
  { path; fd; mutex = Mutex.create (); entries; loaded; repaired }

let path_of t = t.path
let loaded t = t.loaded
let repaired t = t.repaired

let find t spec =
  (* Under the journal mutex: the serve daemon's client-handler
     threads call this while worker domains are mid-[record]. *)
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match Hashtbl.find_opt t.entries (Spec.digest spec) with
      | Some { key; result } when key = Spec.key spec -> Some result
      | Some _ (* digest collision inside the journal *) | None -> None)

let write_fully fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let record t spec result =
  let digest = Spec.digest spec in
  let line = line_of_entry ~digest { key = Spec.key spec; result } in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      write_fully t.fd (Bytes.of_string line);
      Unix.fsync t.fd;
      Hashtbl.replace t.entries digest { key = Spec.key spec; result })

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
