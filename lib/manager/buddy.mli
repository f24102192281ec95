(** Binary buddy placement (non-moving): requests reserve whole
    power-of-two blocks at block-aligned addresses; internal padding is
    tracked manager-side and dies with the object. *)

val make : unit -> Manager.t
