(* Clocks, order statistics, scratch directories and process facts
   shared by the benchmark's workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

(* [f ()] and its duration in seconds on the monotonic clock. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum xs = List.fold_left ( +. ) 0. xs

(* Calls of [f], which returns a result and its duration, for about
   [seconds]: at least [min] calls, and no further call once the last
   one's duration would carry the run past [seconds]. *)
let repeat_for ~seconds ~min f =
  let t_start = now () in
  let rec go acc n =
    match acc with
    | (_, last) :: _ when n >= min && now () -. t_start +. last > seconds ->
        List.rev acc
    | _ -> go (f () :: acc) (n + 1)
  in
  go [] 0

(* A ratio whose base may legitimately be empty (a layer the workload
   does not exercise) reads 0, never NaN. *)
let ratio num den = if den = 0. then 0. else num /. den

(* ------------------------------------------------------------------ *)
(* Scratch state. Every cache, journal, state dir and socket lives
   under [work_root] inside the checkout, one fresh directory per use,
   so no run is served from an earlier run's files. Paths stay relative
   to keep Unix socket paths short. *)

let work_root = Filename.concat ".bench_build" "tmp"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_dir = lazy (Filename.concat work_root (string_of_int (Unix.getpid ())))
let dirs_made = ref 0

let fresh_dir tag =
  incr dirs_made;
  let dir =
    Filename.concat (Lazy.force run_dir) (Printf.sprintf "%s-%d" tag !dirs_made)
  in
  rm_rf dir;
  mkdir_p dir;
  dir

let cleanup () = if Lazy.is_val run_dir then rm_rf (Lazy.force run_dir)

(* ------------------------------------------------------------------ *)

(* VmHWM: the peak resident set of this process, i.e. of one workload,
   since every workload runs in its own process. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
        | None -> 0.
      in
      go ())
