(** Named manager constructors for the CLI, benches and examples.
    One instance serves any number of executions one after another
    (its per-execution state is {!Manager.stateful}'s); executions
    that run at the same time construct one instance each. *)

type entry = {
  key : string;
  summary : string;
  moving : bool;  (** whether the manager uses the compaction budget *)
  construct : unit -> Manager.t;
}

val register : entry -> unit
(** Append an entry to the registry. Raises [Invalid_argument] if an
    entry with the same [key] is already registered — keys are looked
    up by name from sweeps and the CLI, so shadowing must fail loudly
    rather than change what a key means mid-run. *)

val entries : unit -> entry list
(** All registered entries, in registration order (built-ins first). *)

val keys : unit -> string list
val find : string -> entry option

val construct_exn : string -> Manager.t
(** Raises [Invalid_argument] on an unknown key. *)
