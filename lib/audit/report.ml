open Pc_heap

(* Failure triage: turn an oracle violation plus the recorded trace
   into a small deterministic repro bundle on disk.

   A bundle is a directory under the failures dir (default
   _pc_failures/, override with PC_FAILURES_DIR or ?dir):

     <oracle>-<digest12>/
       meta.txt    line-based "key value" provenance + parameters
       trace.txt   the minimized trace in Trace wire format

   Bundles are written atomically (tmp dir + rename) so a crash
   mid-emit never leaves a half bundle, and the directory name is a
   content digest so re-running the same failure lands on the same
   bundle. *)

let src = Logs.Src.create "pc.report" ~doc:"failure repro bundles"

module Log = (val Logs.src_log src : Logs.LOG)

type info = {
  program : string;
  manager : string;
  m : int;
  n : int;
  c : float option; (* the audited compaction bound *)
  theory_h : float option;
}

type bundle = {
  dir : string;
  violation : Oracle.violation;
  info : info;
  events_full : int; (* recorded trace length *)
  events_min : int; (* after shrinking *)
}

exception Reported of bundle

let meta_format = 2

let default_dir () =
  match Sys.getenv_opt "PC_FAILURES_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None -> "_pc_failures"

let replay_command b = Printf.sprintf "pc replay %s" b.dir

(* ------------------------------------------------------------------ *)
(* Reproduction: replay a trace on a fresh heap with only the violated
   oracle attached, at full (every-event) intensity.                  *)

let reproduces ?only ~info trace =
  let level =
    match only with
    | Some "divergence" -> Oracle.Differential
    | Some _ | None -> Oracle.Full
  in
  let heap = Heap.create () in
  let oracle =
    Oracle.attach ~level ~sample_every:1 ?c:info.c ~live_bound:info.m ?only
      heap
  in
  match Trace.replay_onto (module Heap) trace heap with
  | Error _ -> None (* malformed candidate: a shrink rejection *)
  | Ok () -> (
      match Oracle.finish ?theory_h:info.theory_h oracle with
      | () -> None
      | exception Oracle.Violation v -> Some v)
  | exception Oracle.Violation v -> Some v

let same_violation ?only ~info ~oracle trace =
  match reproduces ?only ~info trace with
  | Some v -> String.equal v.Oracle.oracle oracle
  | None -> false

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error (_, _, _) -> ())
    end
    else try Sys.remove path with Sys_error _ -> ()

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* A temp name next to [path] that no other writer holds: the pid
   tells processes apart, the counter tells apart the domains and
   threads of one process. *)
let tmp_counter = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.tmp-%d-%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

let write_file_atomic path contents =
  let tmp = tmp_name path in
  try
    write_file tmp contents;
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_fully fd buf =
  let len = Bytes.length buf in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd buf !sent (len - !sent) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Best-effort provenance: the commit the violation was produced at. *)
let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      if status = Unix.WEXITED 0 && line <> "" then line else "unknown"

let oneline s =
  String.map (function '\n' | '\r' -> ' ' | ch -> ch) s

let meta_text ~(violation : Oracle.violation) ~info ~events_full ~events_min
    ~dir =
  let b = Buffer.create 512 in
  let kv k v = Buffer.add_string b (Printf.sprintf "%s %s\n" k v) in
  kv "format" (string_of_int meta_format);
  kv "oracle" violation.oracle;
  kv "seq" (string_of_int violation.seq);
  kv "detail" (oneline violation.detail);
  kv "program" (oneline info.program);
  kv "manager" (oneline info.manager);
  kv "m" (string_of_int info.m);
  kv "n" (string_of_int info.n);
  kv "c" (match info.c with Some c -> Fmt.str "%h" c | None -> "-");
  kv "theory_h"
    (match info.theory_h with Some h -> Fmt.str "%h" h | None -> "-");
  kv "events_full" (string_of_int events_full);
  kv "events_min" (string_of_int events_min);
  kv "commit" (git_commit ());
  kv "replay" (Printf.sprintf "pc replay %s" dir);
  Buffer.contents b

let emit ?dir ~info ~violation ~events_full minimized =
  let parent = match dir with Some d -> d | None -> default_dir () in
  let trace_text = Trace.to_string minimized in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [
              violation.Oracle.oracle;
              trace_text;
              info.program;
              info.manager;
              string_of_int info.m;
            ]))
  in
  let name = Printf.sprintf "%s-%s" violation.Oracle.oracle
      (String.sub digest 0 12)
  in
  let final = Filename.concat parent name in
  let bundle =
    {
      dir = final;
      violation;
      info;
      events_full;
      events_min = Trace.length minimized;
    }
  in
  mkdir_p parent;
  let tmp = tmp_name final in
  rm_rf tmp;
  mkdir_p tmp;
  write_file (Filename.concat tmp "meta.txt")
    (meta_text ~violation ~info ~events_full
       ~events_min:(Trace.length minimized) ~dir:final);
  write_file (Filename.concat tmp "trace.txt") trace_text;
  (* Atomic publish; a concurrent or earlier emission of the same
     failure owns the same content-addressed name, so losing the race
     is fine. *)
  (try
     rm_rf final;
     Sys.rename tmp final
   with Sys_error _ when Sys.file_exists final -> rm_rf tmp);
  Log.warn (fun k ->
      k "oracle violation (%s) captured: %s (%d -> %d events)"
        violation.Oracle.oracle final events_full bundle.events_min);
  bundle

(* ------------------------------------------------------------------ *)
(* Capture: shrink if the violation kind supports it, emit, raise.    *)

let capture ?dir ~info ~violation ~trace () =
  let only = violation.Oracle.oracle in
  let minimized =
    if Oracle.shrinkable only && same_violation ~only ~info ~oracle:only trace
    then
      Shrink.ddmin ~predicate:(same_violation ~only ~info ~oracle:only) trace
    else trace
  in
  let bundle =
    emit ?dir ~info ~violation ~events_full:(Trace.length trace) minimized
  in
  raise (Reported bundle)

(* ------------------------------------------------------------------ *)
(* Loading and replaying bundles                                      *)

let load dir =
  let ( let* ) = Result.bind in
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    fail "%s: not a bundle directory" dir
  else
    let meta_path = Filename.concat dir "meta.txt" in
    let trace_path = Filename.concat dir "trace.txt" in
    if not (Sys.file_exists meta_path && Sys.file_exists trace_path) then
      fail "%s: missing meta.txt or trace.txt" dir
    else begin
      let tbl = Hashtbl.create 16 in
      In_channel.with_open_bin meta_path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.index_opt line ' ' with
             | Some i ->
                 Hashtbl.replace tbl
                   (String.sub line 0 i)
                   (String.sub line (i + 1) (String.length line - i - 1))
             | None -> ());
      let get k =
        match Hashtbl.find_opt tbl k with
        | Some v -> Ok v
        | None -> fail "%s: meta.txt lacks %S" dir k
      in
      let int_of k v =
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> fail "%s: bad %s %S" dir k v
      in
      let* format = get "format" in
      let* format = int_of "format" format in
      if format <> meta_format then
        fail "%s: unsupported bundle format %d (expected %d)" dir format
          meta_format
      else
        let* oracle = get "oracle" in
        let* seq = Result.bind (get "seq") (int_of "seq") in
        let* detail = get "detail" in
        let* program = get "program" in
        let* manager = get "manager" in
        let* m = Result.bind (get "m") (int_of "m") in
        let* n = Result.bind (get "n") (int_of "n") in
        let* c_raw = get "c" in
        let* c =
          if c_raw = "-" then Ok None
          else
            match float_of_string_opt c_raw with
            | Some c -> Ok (Some c)
            | None -> fail "%s: bad c %S" dir c_raw
        in
        let* th_raw = get "theory_h" in
        let* theory_h =
          if th_raw = "-" then Ok None
          else
            match float_of_string_opt th_raw with
            | Some h -> Ok (Some h)
            | None -> fail "%s: bad theory_h %S" dir th_raw
        in
        let* events_full =
          Result.bind (get "events_full") (int_of "events_full")
        in
        let* events_min = Result.bind (get "events_min") (int_of "events_min") in
        let text = In_channel.with_open_bin trace_path In_channel.input_all in
        match Trace.of_string text with
        | exception Failure msg -> fail "%s: %s" dir msg
        | trace ->
            Ok
              ( {
                  dir;
                  violation = { Oracle.oracle; seq; detail };
                  info = { program; manager; m; n; c; theory_h };
                  events_full;
                  events_min;
                },
                trace )
    end

let replay dir =
  match load dir with
  | Error _ as e -> e
  | Ok (bundle, trace) ->
      let only = bundle.violation.Oracle.oracle in
      Ok (reproduces ~only ~info:bundle.info trace)

(* ------------------------------------------------------------------ *)
(* Exit-code taxonomy shared by the CLIs                              *)

let exit_ok = 0
let exit_usage = 2
let exit_violation = 3
let exit_internal = 4

let pp_bundle ppf b =
  Fmt.pf ppf
    "@[<v>oracle violation: %a@,\
     repro bundle: %s (minimized to %d event%s from %d)@,\
     replay with: %s@]"
    Oracle.pp_violation b.violation b.dir b.events_min
    (if b.events_min = 1 then "" else "s")
    b.events_full (replay_command b)
