(** The memory-manager interface.

    A manager is a placement policy: given the context and a request
    size it returns the address for the new object, possibly moving
    live objects first (through [Pc_heap.Heap.move], which charges the
    compaction budget). The runner performs the actual allocation at
    the returned address. *)

type t

val make :
  name:string ->
  ?description:string ->
  ?on_free:(Ctx.t -> Pc_heap.Heap.obj -> unit) ->
  (Ctx.t -> size:int -> int) ->
  t
(** [on_free] is invoked by the runner after the program frees an
    object, so managers with internal indexes can stay in sync. *)

val stateful :
  name:string ->
  ?description:string ->
  init:(Ctx.t -> 's) ->
  ?on_free:('s -> Ctx.t -> Pc_heap.Heap.obj -> unit) ->
  ('s -> Ctx.t -> size:int -> int) ->
  t
(** A manager with per-execution state: [init ctx] builds the state on
    an execution's first request (allocation or free), and builds it
    afresh whenever a request arrives with a different context, so one
    instance can serve any number of executions, one after another.
    The only place a manager keeps state across requests. *)

val name : t -> string
val description : t -> string

val alloc : t -> Ctx.t -> size:int -> int
(** Choose the placement address for a [size]-word object. The returned
    extent must be free once the manager's moves are done. *)

val on_free : t -> Ctx.t -> Pc_heap.Heap.obj -> unit
val pp : Format.formatter -> t -> unit
