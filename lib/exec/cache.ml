open Pc_adversary
open Pc_json

(* Content-addressed on-disk store of sweep results. One JSON file per
   executed spec, named by the spec's digest:

     <dir>/<md5-hex-of-spec-key>.json

   Each file records the format version, the canonical spec key (so a
   digest collision or a stale format is detected, never silently
   served), the full spec, and the outcome. Writes go through
   [Pc_audit.Report.write_file_atomic] (a temp file unique to the
   writer, then a rename), so a crashed run never leaves a truncated
   entry behind and concurrent stores of one spec never collide. *)

type t = { dir : string }

let env_var = "PC_CACHE_DIR"
let default_dir () =
  match Sys.getenv_opt env_var with
  | Some d when d <> "" -> d
  | Some _ | None -> "_pc_cache"

let create ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  Pc_audit.Report.mkdir_p dir;
  { dir }

let dir t = t.dir
let path t spec = Filename.concat t.dir (Spec.digest spec ^ ".json")

(* ------------------------------------------------------------------ *)
(* Outcome (de)serialisation                                          *)

let outcome_to_json (o : Runner.outcome) =
  Json.Obj
    [
      ("program", Json.String o.program);
      ("manager", Json.String o.manager);
      ("m", Json.Int o.m);
      ("n", Json.Int o.n);
      ("c", (match o.c with None -> Json.Null | Some c -> Json.Float c));
      ("hs", Json.Int o.hs);
      ("hs_over_m", Json.Float o.hs_over_m);
      ("allocated", Json.Int o.allocated);
      ("moved", Json.Int o.moved);
      ("freed", Json.Int o.freed);
      ("final_live", Json.Int o.final_live);
      ("compliant", Json.Bool o.compliant);
    ]

exception Bad_entry of string

let fail fmt = Fmt.kstr (fun s -> raise (Bad_entry s)) fmt

let get f j k =
  match f (Json.member_exn k j) with
  | Some v -> v
  | None -> fail "cache entry: bad field %s" k

let outcome_of_json j : Runner.outcome =
  {
    program = get Json.to_string_opt j "program";
    manager = get Json.to_string_opt j "manager";
    m = get Json.to_int j "m";
    n = get Json.to_int j "n";
    c =
      (match Json.member_exn "c" j with
      | Json.Null -> None
      | v -> (
          match Json.to_float v with
          | Some c -> Some c
          | None -> fail "cache entry: bad field c"));
    hs = get Json.to_int j "hs";
    hs_over_m = get Json.to_float j "hs_over_m";
    allocated = get Json.to_int j "allocated";
    moved = get Json.to_int j "moved";
    freed = get Json.to_int j "freed";
    final_live = get Json.to_int j "final_live";
    compliant = get Json.to_bool j "compliant";
  }

(* ------------------------------------------------------------------ *)
(* Lookup / store                                                     *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type lookup =
  | Hit of Runner.outcome
  | Miss
  | Invalid of { path : string; reason : string }

let lookup ?faults t spec =
  let path = path t spec in
  if not (Sys.file_exists path) then Miss
  else begin
    let content =
      let raw = read_file path in
      match faults with
      | None -> raw
      | Some f -> (
          match Faults.mangle_read f ~digest:(Spec.digest spec) raw with
          | Some corrupted -> corrupted
          | None -> raw)
    in
    match Json.of_string content with
    | exception _ ->
        Invalid { path; reason = "unreadable entry (truncated or garbage)" }
    | entry -> (
        if Json.member "format" entry <> Some (Json.Int Spec.cache_format) then
          Invalid { path; reason = "stale or missing format version" }
        else if Json.member "key" entry <> Some (Json.String (Spec.key spec))
        then
          (* The file is named by this spec's digest but records a
             different canonical key: a digest collision or a mangled
             entry. Never serve it. *)
          Invalid { path; reason = "key mismatch (digest collision?)" }
        else
          match Json.member "outcome" entry with
          | None -> Invalid { path; reason = "missing outcome" }
          | Some o -> (
              match outcome_of_json o with
              | outcome -> Hit outcome
              | exception _ -> Invalid { path; reason = "malformed outcome" }))
  end

let find ?faults t spec =
  match lookup ?faults t spec with Hit o -> Some o | Miss | Invalid _ -> None

let store ?faults t spec (outcome : Runner.outcome) =
  let entry =
    Json.Obj
      [
        ("format", Json.Int Spec.cache_format);
        ("key", Json.String (Spec.key spec));
        ("spec", Spec.to_json spec);
        ("outcome", outcome_to_json outcome);
      ]
  in
  let content =
    let full = Json.to_string ~indent:true entry in
    match faults with
    | None -> full
    | Some f -> (
        match Faults.mangle_write f ~digest:(Spec.digest spec) full with
        | Some torn -> torn
        | None -> full)
  in
  Pc_audit.Report.write_file_atomic (path t spec) content
