(** Next fit: first fit resuming from a roving pointer (non-moving). *)

val make : unit -> Manager.t
