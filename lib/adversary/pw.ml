(* A Bendersky-Petrank-style adversary (POPL 2011's P_W, summarised in
   Section 2.2 of the paper). The exact program lives in [4]; this is
   the natural chunk-pinning reconstruction, distinct from Robson's
   offset scheme and from P_F's density maintenance:

   step i = 0 .. log n: partition the heap into aligned chunks of
   2^i words; keep exactly one minimal pinned object per touched chunk
   and free everything else, then refill the freed budget with objects
   of size 2^i. A pinned object blocks its whole chunk for the rest of
   the execution (larger future objects need fully-free chunks), but —
   unlike P_F — nothing stops a compacting manager from evicting the
   single cheap pin, which is why [4]'s bound degrades so sharply with
   c and is vacuous at practical scales (Figure 1). Ghost handling as
   in P_F's stage 1: moved objects are freed immediately but keep
   pinning their original chunk for the program's decisions. *)

let program ?steps ~m ~n () =
  let log_n = Pc_bounds.Logf.log2_exact n in
  let steps = match steps with Some s -> s | None -> log_n in
  if steps < 0 || steps > log_n then
    invalid_arg "Pw.program: steps out of range";
  Program.make
    ~name:(Fmt.str "pw[%d]" steps)
    ~live_bound:m ~max_size:n
    (fun driver ->
      let view = View.create driver in
      (* step 0: fill with unit objects *)
      for _ = 1 to m do
        ignore (View.alloc view ~size:1 : Pc_heap.Oid.t)
      done;
      for i = 1 to steps do
        let chunk = 1 lsl i in
        (* Keep the smallest object per chunk (by original address);
           free the rest. Objects spanning several chunks pin the
           chunk of their first word. Every original address lies
           below the high-water mark, so the chunks are dense ints
           and the keeper is three int arrays indexed by chunk: its
           oid (-1 for none yet), original address and size. Ties of
           size and address go to the first in the view's order. *)
        let chunks = (Driver.high_water driver / chunk) + 1 in
        let best = Array.make chunks (-1)
        and best_addr = Array.make chunks 0
        and best_size = Array.make chunks 0 in
        View.iter_present view (fun oid addr size ->
            let idx = addr / chunk in
            if
              best.(idx) < 0
              || size < best_size.(idx)
              || (size = best_size.(idx) && addr < best_addr.(idx))
            then begin
              best.(idx) <- Pc_heap.Oid.to_int oid;
              best_addr.(idx) <- addr;
              best_size.(idx) <- size
            end);
        View.retain view (fun oid addr _ ->
            best.(addr / chunk) = Pc_heap.Oid.to_int oid);
        (* refill with 2^i-word objects up to the live bound, counting
           ghosts against the budget as in Algorithm 1 line 7 *)
        let count = (m - View.present_words view) / chunk in
        for _ = 1 to count do
          ignore (View.alloc view ~size:chunk : Pc_heap.Oid.t)
        done
      done)
