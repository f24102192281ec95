open Pc_exec
open Pc_json

(* On-disk layout of a serve daemon's state dir, sharded per tenant:

     <state_dir>/
       serve.lock                        (Lockfile — single daemon)
       tenants/<name>/cache/             (result cache, Cache.t)
       tenants/<name>/sweeps/            (checkpoint journals)
       tenants/<name>/submissions/<id>.json   (durable manifests)

   A manifest pins down one accepted submission — tenant, ordered
   spec list, retry budget — and is written atomically (tmp + rename)
   *before* the daemon acks, so an Accepted response is a durable
   promise: a daemon killed right after the ack finds the manifest on
   restart, reopens the tenant's journal, and requeues exactly the
   jobs the journal does not already answer for. The submission id is
   the checkpoint sweep digest of the ordered spec list, so manifest,
   journal and resubmission dedup all share one identity. *)

let src = Logs.Src.create "pc.serve.store" ~doc:"serve state dir"

module Log = (val Logs.src_log src : Logs.LOG)

type manifest = {
  id : string;
  tenant : string;
  specs : Spec.t list;
  retries : int;
}

let lock_path ~state_dir = Filename.concat state_dir "serve.lock"
let tenants_dir ~state_dir = Filename.concat state_dir "tenants"

let tenant_dir ~state_dir tenant =
  Filename.concat (tenants_dir ~state_dir) tenant

let cache_dir ~state_dir tenant =
  Filename.concat (tenant_dir ~state_dir tenant) "cache"

let journal_dir ~state_dir tenant =
  Filename.concat (tenant_dir ~state_dir tenant) "sweeps"

let submissions_dir ~state_dir tenant =
  Filename.concat (tenant_dir ~state_dir tenant) "submissions"

let manifest_path ~state_dir m =
  Filename.concat (submissions_dir ~state_dir m.tenant) (m.id ^ ".json")

let submission_id specs = Checkpoint.sweep_digest specs

let make ~tenant ~specs ~retries =
  { id = submission_id specs; tenant; specs; retries }

(* ------------------------------------------------------------------ *)

let manifest_to_json m =
  Json.Obj
    [
      ("id", Json.String m.id);
      ("tenant", Json.String m.tenant);
      ("retries", Json.Int m.retries);
      ("specs", Json.List (List.map Spec.to_json m.specs));
    ]

let manifest_of_json j =
  match
    ( Option.bind (Json.member "id" j) Json.to_string_opt,
      Option.bind (Json.member "tenant" j) Json.to_string_opt,
      Json.member "specs" j )
  with
  | Some id, Some tenant, Some (Json.List specs) ->
      let retries =
        Option.bind (Json.member "retries" j) Json.to_int
        |> Option.value ~default:0
      in
      let specs = List.map Spec.of_json specs in
      let m = { id; tenant; specs; retries } in
      (* The id is derived, not trusted: a manifest whose id does not
         match its spec list was tampered with or torn. *)
      if submission_id specs <> id then failwith "manifest id mismatch";
      m
  | _ -> failwith "malformed manifest"

let save ~state_dir m =
  let dir = submissions_dir ~state_dir m.tenant in
  Pc_audit.Report.mkdir_p dir;
  Pc_audit.Report.write_file_atomic (manifest_path ~state_dir m)
    (Json.to_string ~indent:true (manifest_to_json m) ^ "\n")

(* ------------------------------------------------------------------ *)

let list_dirs path =
  match Sys.readdir path with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             try Sys.is_directory (Filename.concat path n)
             with Sys_error _ -> false)
      |> List.sort String.compare

let load_all ~state_dir =
  let tenants = list_dirs (tenants_dir ~state_dir) in
  List.concat_map
    (fun tenant ->
      let dir = submissions_dir ~state_dir tenant in
      match Sys.readdir dir with
      | exception Sys_error _ -> []
      | names ->
          Array.to_list names
          |> List.filter (fun n -> Filename.check_suffix n ".json")
          |> List.sort String.compare
          |> List.filter_map (fun name ->
                 let path = Filename.concat dir name in
                 match
                   Json.of_string
                     (In_channel.with_open_bin path In_channel.input_all)
                   |> manifest_of_json
                 with
                 | m when m.tenant = tenant -> Some m
                 | _ ->
                     Log.warn (fun k ->
                         k "manifest %s: tenant mismatch; ignored" path);
                     None
                 | exception e ->
                     (* A torn manifest (daemon killed mid-save before
                        the rename can only leave a temp file, but a partial
                        byte-level copy can exist after fs damage):
                        skipping it loses only an un-acked submission. *)
                     Log.warn (fun k ->
                         k "manifest %s: unreadable (%s); ignored" path
                           (Printexc.to_string e));
                     None))
    tenants
