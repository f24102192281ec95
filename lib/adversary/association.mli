(** The object-to-chunk association maintained by [P_F]'s second stage
    (Section 4, Figure 4), and the potential function computed from it
    (Definition 4.4).

    At step [i] the heap splits into aligned chunks of [2{^i}] words;
    chunk [k] covers [\[k·2{^i}, (k+1)·2{^i})]. Each chunk holds a set
    of associated entries: whole objects or halves (Claim 4.15).
    Association survives compaction (entries of ghosted objects stay at
    the old chunk) and migrates on half de-allocation.

    Representation: dense int arrays only. Per chunk number, the head of
    its entry list, its entry-size sum and its middle flag; all entries
    in one pool of singly linked int lists; per oid, the (at most two)
    entries it has. A removal marks its node in place, and new nodes go
    at the pool's end; {!merge_step} copies the live nodes into a second
    pool, one run per chunk, chunks ascending, and the pools swap. So
    once the first merge has run, two pools are held. Storage grows a
    block at a time, so a small run allocates little.

    Order contract. [P_F]'s choices, and so the event streams the
    behaviour lock pins, follow the order of {!chunk_indices} and of
    each {!entries} list. Both are the orders of the
    [(int, _) Hashtbl.t] this module once kept, reproduced as a sort key
    built per walk:
    - a table walk visits chunks by [Hashtbl.hash k land (nb-1)]
      ascending, then newest insertion first; a chunk is inserted when
      it first gains state ({!assoc_whole}, {!assoc_halves},
      {!set_middle}); [nb] starts at 256 and doubles whenever the count
      passes [2 nb];
    - {!merge_step} starts over with [nb] the least power of two
      [>= max 16 count] and inserts merged chunk [k] when the first of
      chunks [2k], [2k+1] comes up in the old walk;
    - {!chunk_indices} is the walk reversed;
    - a chunk's entries are newest first. After {!merge_step}, merged
      chunk [k] lists the entries of whichever of [2k], [2k+1] came first
      in the old walk, then the other's; a half whose partner is in the
      first list is dropped, and the partner turns whole in place. *)

type entry = private int
(** One entry, encoded as [oid·2 + half]. An object has at most one
    entry per chunk, so a chunk index and an entry name it. *)

val entry_oid : entry -> Pc_heap.Oid.t
val entry_half : entry -> bool

type t

val create : chunk_log:int -> ell:int -> t
(** Chunks of [2{^chunk_log}] words; target density [2{^-ell}]. *)

val chunk_log : t -> int
val sum : t -> int -> int
(** Total entry size associated with a chunk index. *)

val entries : t -> int -> entry list
(** A chunk's entries, in list order (see the order contract). *)

val iter_entries : t -> int -> (entry -> int -> unit) -> unit
(** [iter_entries t idx f] calls [f e k] on each entry of the chunk,
    where [2{^k}] is its {!entry_size} (every object size is a power of
    two), in {!entries}' order and without building the list. [f] may
    take out the entry it is passed ({!remove_entry}, {!migrate_half});
    it must not change the association otherwise. *)

val entry_size : t -> entry -> int
(** The object size, or half of it for a half. *)

val is_middle : t -> int -> bool
val locs_of : t -> Pc_heap.Oid.t -> int list
(** The 0, 1 or 2 chunk indices holding entries of an object. *)

val assoc_whole : t -> Pc_heap.Oid.t -> obj_size:int -> chunk:int -> unit
(** Raises [Invalid_argument] unless [obj_size] is a power of two, or
    if the object already has two entries. Chunk indices are
    non-negative. *)

val assoc_halves :
  t -> Pc_heap.Oid.t -> obj_size:int -> chunk1:int -> chunk2:int -> unit
(** Two half entries, on [chunk1] and then [chunk2] ([chunk1 = chunk2]
    degrades to a whole). Halves need [obj_size >= 2]. *)

val set_middle : t -> int -> unit
(** Put a chunk into the middle set [E] (Definition 4.12). Raises
    [Invalid_argument] if the chunk still has entries — only freshly
    reused (reset) chunks can be middle. *)

val remove_entry : t -> int -> entry -> unit
(** Raises [Invalid_argument] if the chunk does not hold the entry. *)

val reset_chunk : t -> int -> Pc_heap.Oid.t list
(** Drop every entry of a chunk (reuse by a fresh allocation,
    Algorithm 1 line 14) and clear its middle flag. Returns the oids
    that lost their last entry — ghosts that cease to exist — in the
    chunk's list order. *)

val migrate_half : t -> from_idx:int -> entry -> int option
(** De-allocate a half (Algorithm 1 line 13): the half moves to the
    chunk holding the object's other half, merging into a whole entry
    at the front of that chunk's list; returns that chunk. [None] when
    no other half exists (the entry just disappears). *)

val merge_step : t -> unit
(** Step change (line 12): chunk size doubles, pairs merge, half-pairs
    sharing a chunk become wholes, the middle set empties. *)

val chunk_indices : t -> int list
(** The chunks in the table, in the order contract's order: every
    chunk that gained an entry or the middle flag, kept even once
    emptied, and after a {!merge_step} the chunks those merged into. *)

val chunk_count : t -> int

val potential : t -> n:int -> int
(** The potential function [u] (Definition 4.4): [Σ u_D − n/4] with
    [u_D = 2{^i}] for middle chunks and [min(2{^ell}·sum_D, 2{^i})]
    otherwise. A lower bound on the heap size used so far. *)

val check_invariants : t -> unit
(** Raises [Failure] on drift, in one pass over the chunks, the entries
    and the oids; for tests. *)
