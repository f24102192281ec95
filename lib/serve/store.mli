(** On-disk layout of a serve daemon's state dir, sharded per tenant.

    {v
    <state_dir>/
      serve.lock                           single-daemon lockfile
      tenants/<name>/cache/                result cache
      tenants/<name>/sweeps/               checkpoint journals
      tenants/<name>/submissions/<id>.json durable manifests
    v}

    A manifest is written atomically (tmp + rename) {e before} the
    daemon acks a submission, making [Accepted] a durable promise: a
    daemon killed right after the ack finds the manifest on restart
    and requeues exactly the jobs its journal does not answer for.
    The submission id is {!Pc_exec.Checkpoint.sweep_digest} of the
    ordered spec list — manifest, journal and resubmission dedup share
    one identity. *)

type manifest = {
  id : string;
  tenant : string;
  specs : Pc_exec.Spec.t list;
  retries : int;
}

val submission_id : Pc_exec.Spec.t list -> string

val make :
  tenant:string ->
  specs:Pc_exec.Spec.t list ->
  retries:int ->
  manifest

val lock_path : state_dir:string -> string
val cache_dir : state_dir:string -> string -> string
val journal_dir : state_dir:string -> string -> string

val save : state_dir:string -> manifest -> unit
(** Atomic write through {!Pc_audit.Report.write_file_atomic};
    fsync-free (the ack path's durability bar is the rename — a temp
    file left by a killed daemon is ignored by {!load_all}). *)

val load_all : state_dir:string -> manifest list
(** Every readable manifest under every tenant, sorted (tenant, id).
    Unreadable or tampered manifests are logged and skipped. *)
