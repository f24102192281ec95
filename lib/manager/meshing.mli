(** Mesh-style compacting manager (arXiv 1902.04738) on the
    {!Pages} size-class grid: when a fresh page would raise the
    high-water mark, two same-class pages with disjoint occupancy
    bitmaps are merged slot-for-slot (no intra-page moves) and the
    released grid cell is reused. Only the six sparsest pages of each
    class are considered for pairing. Merges charge the c-partial
    budget exactly [Evict.window_cost] of the source page.

    Stateful — construct one manager per execution. [page_words] must
    be a power of two (default [2{^6}]). *)

val make : ?page_words:int -> unit -> Manager.t
