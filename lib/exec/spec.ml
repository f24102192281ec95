open Pc_adversary
open Pc_json

(* A deterministic, serialisable description of one experiment point:
   which adversary/workload, against which manager, at which scale.
   Specs are pure data so they can be hashed (content-addressed result
   cache), shipped to worker domains, and compared across runs. *)

type size_dist = Random_workload.size_dist =
  | Uniform of { lo : int; hi : int }
  | Pow2 of { lo_log : int; hi_log : int }
  | Fixed of int

type sawtooth_pattern = Sawtooth.pattern =
  | Every_other
  | First_half
  | Random of int

type workload =
  | Pf of { ell : int option; stage1_steps : int option; maintain_density : bool }
  | Robson of { steps : int option }
  | Pw of { steps : int option }
  | Sawtooth of { rounds : int option; pattern : sawtooth_pattern }
  | Random_churn of {
      seed : int;
      churn : int;
      dist : size_dist;
      target_live : int;
    }
  | Script of { text : string }

type t = {
  workload : workload;
  manager : string;
  m : int;
  n : int;
  c : float option;
}

let equal = Stdlib.( = )

(* ------------------------------------------------------------------ *)
(* Constructors                                                       *)

(* PF's construction depends on c itself (not just the budget), so the
   constructor requires it. *)
let pf ?ell ?stage1_steps ?(maintain_density = true) ~c ~manager ~m ~n () =
  {
    workload = Pf { ell; stage1_steps; maintain_density };
    manager;
    m;
    n;
    c = Some c;
  }

let robson ?steps ?c ~manager ~m ~n () =
  { workload = Robson { steps }; manager; m; n; c }

let pw ?steps ?c ~manager ~m ~n () =
  { workload = Pw { steps }; manager; m; n; c }

let sawtooth ?rounds ?(pattern = Every_other) ?c ~manager ~m ~n () =
  { workload = Sawtooth { rounds; pattern }; manager; m; n; c }

let random_churn ?(seed = 42) ?(churn = 10_000) ?c ~manager ~m ~dist
    ~target_live () =
  {
    workload = Random_churn { seed; churn; dist; target_live };
    manager;
    m;
    n = Random_workload.max_size_of dist;
    c;
  }

let script ~manager text =
  let program = Script.program (Script.parse text) in
  {
    workload = Script { text };
    manager;
    m = Program.live_bound program;
    n = Program.max_size program;
    c = None;
  }

(* ------------------------------------------------------------------ *)
(* Realisation                                                        *)

let build ?(pf_audit = false) t =
  match t.workload with
  | Pf { ell; stage1_steps; maintain_density } ->
      let c =
        match t.c with
        | Some c -> c
        | None -> invalid_arg "Spec.build: a PF spec needs a compaction bound c"
      in
      let _config, program =
        Pf.program ?ell ?stage1_steps ~maintain_density ~audit:pf_audit ~m:t.m
          ~n:t.n ~c ()
      in
      program
  | Robson { steps } -> Robson_pr.program ?steps ~m:t.m ~n:t.n ()
  | Pw { steps } -> Pw.program ?steps ~m:t.m ~n:t.n ()
  | Sawtooth { rounds; pattern } ->
      Sawtooth.program ?rounds ~pattern ~m:t.m ~n:t.n ()
  | Random_churn { seed; churn; dist; target_live } ->
      Random_workload.program ~seed ~churn ~m:t.m ~dist ~target_live ()
  | Script { text } -> Script.program (Script.parse text)

let manager t = Pc_manager.Registry.construct_exn t.manager

(* Theorem 1's floor applies to full-strength PF only: the ablation
   variants (no density maintenance, truncated stage 1) are designed
   to fall below it. *)
let theory_h t =
  match (t.workload, t.c) with
  | Pf { ell; stage1_steps = None; maintain_density = true }, Some c -> (
      match Pf.config ?ell ~m:t.m ~n:t.n ~c () with
      | cfg -> Some cfg.Pf.h
      | exception Invalid_argument _ -> None)
  | _ -> None

let run ?audit ?(broken_budget = false) ?failures_dir t =
  let program = build ~pf_audit:(audit = Some Pc_audit.Oracle.Full) t in
  let manager = manager t in
  (* A broken budget lifts the enforced bound; the oracle still audits
     the spec's c. *)
  let c, audit_c = if broken_budget then (None, t.c) else (t.c, None) in
  Runner.run ?c ?audit_c ?audit ?theory_h:(theory_h t) ?failures_dir ~program
    ~manager ()

let record t =
  Runner.run_recorded ?c:t.c ~program:(build t) ~manager:(manager t) ()

(* ------------------------------------------------------------------ *)
(* Canonical key and digest                                           *)

let fstr f = Printf.sprintf "%.17g" f
let ostr = function None -> "-" | Some i -> string_of_int i

let dist_key = function
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%d:%d" lo hi
  | Pow2 { lo_log; hi_log } -> Printf.sprintf "pow2:%d:%d" lo_log hi_log
  | Fixed n -> Printf.sprintf "fixed:%d" n

let pattern_key = function
  | Every_other -> "every-other"
  | First_half -> "first-half"
  | Random seed -> Printf.sprintf "random:%d" seed

let workload_key = function
  | Pf { ell; stage1_steps; maintain_density } ->
      Printf.sprintf "pf ell=%s s1=%s md=%b" (ostr ell) (ostr stage1_steps)
        maintain_density
  | Robson { steps } -> Printf.sprintf "robson steps=%s" (ostr steps)
  | Pw { steps } -> Printf.sprintf "pw steps=%s" (ostr steps)
  | Sawtooth { rounds; pattern } ->
      Printf.sprintf "sawtooth rounds=%s pattern=%s" (ostr rounds)
        (pattern_key pattern)
  | Random_churn { seed; churn; dist; target_live } ->
      Printf.sprintf "random seed=%d churn=%d dist=%s live=%d" seed churn
        (dist_key dist) target_live
  | Script { text } -> Printf.sprintf "script %S" text

let key t =
  Printf.sprintf "%s | manager=%s m=%d n=%d c=%s" (workload_key t.workload)
    t.manager t.m t.n
    (match t.c with None -> "-" | Some c -> fstr c)

(* Bump when the execution semantics change in a way that invalidates
   cached outcomes (new adversary logic, changed accounting, ...). *)
let cache_format = 1

let digest t =
  Digest.to_hex (Digest.string (Printf.sprintf "pc-exec-%d|%s" cache_format (key t)))

let pp ppf t = Fmt.string ppf (key t)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                    *)

let json_of_option f = function None -> Json.Null | Some v -> f v

let dist_to_json = function
  | Uniform { lo; hi } ->
      Json.Obj [ ("kind", Json.String "uniform"); ("lo", Json.Int lo); ("hi", Json.Int hi) ]
  | Pow2 { lo_log; hi_log } ->
      Json.Obj
        [
          ("kind", Json.String "pow2");
          ("lo_log", Json.Int lo_log);
          ("hi_log", Json.Int hi_log);
        ]
  | Fixed n -> Json.Obj [ ("kind", Json.String "fixed"); ("size", Json.Int n) ]

let pattern_to_json = function
  | Every_other -> Json.String "every-other"
  | First_half -> Json.String "first-half"
  | Random seed -> Json.Obj [ ("random", Json.Int seed) ]

let workload_to_json = function
  | Pf { ell; stage1_steps; maintain_density } ->
      Json.Obj
        [
          ("kind", Json.String "pf");
          ("ell", json_of_option (fun i -> Json.Int i) ell);
          ("stage1_steps", json_of_option (fun i -> Json.Int i) stage1_steps);
          ("maintain_density", Json.Bool maintain_density);
        ]
  | Robson { steps } ->
      Json.Obj
        [
          ("kind", Json.String "robson");
          ("steps", json_of_option (fun i -> Json.Int i) steps);
        ]
  | Pw { steps } ->
      Json.Obj
        [
          ("kind", Json.String "pw");
          ("steps", json_of_option (fun i -> Json.Int i) steps);
        ]
  | Sawtooth { rounds; pattern } ->
      Json.Obj
        [
          ("kind", Json.String "sawtooth");
          ("rounds", json_of_option (fun i -> Json.Int i) rounds);
          ("pattern", pattern_to_json pattern);
        ]
  | Random_churn { seed; churn; dist; target_live } ->
      Json.Obj
        [
          ("kind", Json.String "random");
          ("seed", Json.Int seed);
          ("churn", Json.Int churn);
          ("dist", dist_to_json dist);
          ("target_live", Json.Int target_live);
        ]
  | Script { text } ->
      Json.Obj [ ("kind", Json.String "script"); ("text", Json.String text) ]

let to_json t =
  Json.Obj
    [
      ("workload", workload_to_json t.workload);
      ("manager", Json.String t.manager);
      ("m", Json.Int t.m);
      ("n", Json.Int t.n);
      ("c", json_of_option (fun c -> Json.Float c) t.c);
    ]

exception Bad_spec of string

let fail fmt = Fmt.kstr (fun s -> raise (Bad_spec s)) fmt

let get_int j k =
  match Json.to_int (Json.member_exn k j) with
  | Some i -> i
  | None -> fail "field %s: expected int" k

let get_int_opt j k =
  match Json.member k j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Some i
      | None -> fail "field %s: expected int or null" k)

let get_string j k =
  match Json.to_string_opt (Json.member_exn k j) with
  | Some s -> s
  | None -> fail "field %s: expected string" k

let dist_of_json j =
  match get_string j "kind" with
  | "uniform" -> Uniform { lo = get_int j "lo"; hi = get_int j "hi" }
  | "pow2" -> Pow2 { lo_log = get_int j "lo_log"; hi_log = get_int j "hi_log" }
  | "fixed" -> Fixed (get_int j "size")
  | k -> fail "unknown size distribution %S" k

let pattern_of_json = function
  | Json.String "every-other" -> Every_other
  | Json.String "first-half" -> First_half
  | Json.Obj _ as j -> Random (get_int j "random")
  | _ -> fail "bad sawtooth pattern"

let workload_of_json j =
  match get_string j "kind" with
  | "pf" ->
      let maintain_density =
        match Json.member "maintain_density" j with
        | Some (Json.Bool b) -> b
        | _ -> true
      in
      Pf
        {
          ell = get_int_opt j "ell";
          stage1_steps = get_int_opt j "stage1_steps";
          maintain_density;
        }
  | "robson" -> Robson { steps = get_int_opt j "steps" }
  | "pw" -> Pw { steps = get_int_opt j "steps" }
  | "sawtooth" ->
      Sawtooth
        {
          rounds = get_int_opt j "rounds";
          pattern = pattern_of_json (Json.member_exn "pattern" j);
        }
  | "random" ->
      Random_churn
        {
          seed = get_int j "seed";
          churn = get_int j "churn";
          dist = dist_of_json (Json.member_exn "dist" j);
          target_live = get_int j "target_live";
        }
  | "script" -> Script { text = get_string j "text" }
  | k -> fail "unknown workload %S" k

let of_json j =
  let t =
    {
      workload = workload_of_json (Json.member_exn "workload" j);
      manager = get_string j "manager";
      m = get_int j "m";
      n = get_int j "n";
      c =
        (match Json.member "c" j with
        | None | Some Json.Null -> None
        | Some v -> (
            match Json.to_float v with
            | Some c -> Some c
            | None -> fail "field c: expected float or null"));
    }
  in
  (* A script's m and n are its own: parse it here, so a bad script is
     refused when it is decoded. *)
  match t.workload with
  | Script { text } -> (
      try { (script ~manager:t.manager text) with c = t.c }
      with Script.Bad_script msg -> fail "bad script: %s" msg)
  | _ -> t
