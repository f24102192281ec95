(** Compact-fit manager (arXiv 1404.1830): {!Pages} size-class pages
    keeping at most one partial page per class. A free in a full page
    breaks the invariant; the repair moves (one object plugged per
    hole) run at the start of the next allocation, because the
    interaction model reports compaction to the program only while
    serving an allocation. When the c-partial budget cannot pay, the
    invariant lapses gracefully until the budget recharges.

    Stateful — construct one manager per execution. [page_words] must
    be a power of two (default [2{^6}]). *)

val make : ?page_words:int -> unit -> Manager.t
