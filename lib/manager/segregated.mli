(** Segregated storage (slab-style, non-moving) on the {!Pages} grid:
    block-aligned blocks dedicated to power-of-two size classes, sliced
    into equal slots; large objects get dedicated block spans.

    Stateful — construct one manager per execution. [block_words] must
    be a power of two (default [2{^10}]). *)

val make : ?block_words:int -> unit -> Manager.t
