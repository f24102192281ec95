open Pc_bounds

(* The paper's bad program P_F (Algorithm 1) — the constructive heart
   of Theorem 1.

   Stage 1 (steps 0..l): Robson's program hardened with ghosts
   (Robson_steps). Stage 2 (steps 2l .. log n - 2): at each step the
   heap is partitioned into 2^i-word chunks; the program de-allocates
   as much as possible while keeping every chunk's associated objects
   at density 2^-l (Association), then allocates floor(x*M*2^(-i-2))
   objects of size 2^(i+2), each of which must land on >= 3 entirely
   fresh (or expensively compacted) chunks. Density 2^-l > 1/c makes
   chunk reuse cost the manager more budget than the allocation
   recharges, so the heap must keep growing: HS >= M*h (Theorem 1). *)

(* Telemetry: one span per stage — stage 2 aggregates over its steps,
   so [count] on the snapshot is the number of stage-2 steps run. *)
let stage1_span = Pc_telemetry.Registry.span "pf.stage1"
let stage2_span = Pc_telemetry.Registry.span "pf.stage2_step"

type observation = {
  step : int; (* the step index i, or 2l-1 for the stage-1 snapshot *)
  potential : int; (* the paper's u(t) at the end of the step *)
  high_water : int;
  live_words : int;
  present_words : int; (* live + ghost *)
}

type config = {
  m : int;
  n : int;
  c : float;
  ell : int;
  h : float;
  x : float; (* per-step allocation fraction of M *)
}

let config ?ell ~m ~n ~c () =
  let log_n = Logf.log2_exact n in
  if m <= n then invalid_arg "Pf.config: need M > n";
  let ell =
    match ell with
    | Some e -> e
    | None -> (
        match Cohen_petrank.best ~m ~n ~c with
        | Some { ell; _ } -> ell
        | None -> 1)
  in
  if ell < 1 then invalid_arg "Pf.config: need l >= 1";
  if (2 * ell) + 2 > log_n then
    invalid_arg "Pf.config: need 2l + 2 <= log2 n (stage 2 must exist)";
  let h = Option.value (Cohen_petrank.h ~m ~n ~c ~ell) ~default:1.0 in
  let x =
    Option.value
      (Cohen_petrank.stage2_allocation_fraction ~m ~n ~c ~ell)
      ~default:(1.0 /. float_of_int (ell + 1))
  in
  { m; n; c; ell; h; x }

(* Drop an object from the view once its last association entry is
   gone. Only ghosts can reach this point: a live object's entries sit
   on chunks it intersects, which are therefore never reused. *)
let drop_if_orphaned view assoc oid =
  if Association.locs_of assoc oid = [] && View.mem view oid then begin
    if not (View.is_ghost view oid) then
      failwith "Pf: live object lost its association entries";
    View.free view oid
  end

(* Algorithm 1 line 13: for each chunk, de-allocate as much as
   possible while keeping the associated size at least [threshold].
   Halves migrate to their partner chunk (re-evaluated via the
   worklist); wholes are really freed.

   One sorted pass is equivalent to Algorithm 1's "repeatedly drop the
   largest droppable entry": dropping an entry only shrinks the
   associated sum, so an entry that failed [s - |e| >= threshold] can
   never become droppable later — the scan position is monotone, and
   re-sorting after every removal (the literal reading) would reproduce
   exactly this sequence of drops. The entries go largest first, ties
   in the chunk's list order: one walk of the list per size present. *)
let density_pass view assoc ~threshold =
  let work = Queue.create () in
  List.iter (fun idx -> Queue.add idx work) (Association.chunk_indices assoc);
  while not (Queue.is_empty work) do
    let idx = Queue.pop work in
    let logs = ref 0 in
    Association.iter_entries assoc idx (fun _ lg -> logs := !logs lor (1 lsl lg));
    let s = ref (Association.sum assoc idx) in
    for lg = Sys.int_size - 2 downto 0 do
      let sz = 1 lsl lg in
      if !logs land sz <> 0 && !s - sz >= threshold then
        Association.iter_entries assoc idx (fun e lg' ->
            if lg' = lg && !s - sz >= threshold then begin
              s := !s - sz;
              let oid = Association.entry_oid e in
              if Association.entry_half e then begin
                match Association.migrate_half assoc ~from_idx:idx e with
                | Some dest -> Queue.add dest work
                | None -> drop_if_orphaned view assoc oid
              end
              else begin
                Association.remove_entry assoc idx e;
                View.free view oid
              end
            end)
    done
  done

exception
  Audit_failure of {
    step : int;
    delta_u : int;
    floor : int; (* ceil(3/4 |o|) - 2^l q(o) *)
  }

(* [stage1_steps] and [maintain_density] exist for ablation studies
   (pc experiment ablation): they deliberately weaken the adversary to
   measure how much each of the paper's two mechanisms — the Robson
   stage and the density maintenance — contributes to the bound. *)
let program ?ell ?observe ?(audit = false) ?stage1_steps
    ?(maintain_density = true) ~m ~n ~c () =
  let cfg = config ?ell ~m ~n ~c () in
  let log_n = Logf.log2_exact n in
  let ell = cfg.ell in
  let stage1_steps =
    match stage1_steps with
    | None -> ell
    | Some s ->
        if s < 0 || s > ell then
          invalid_arg "Pf.program: stage1_steps out of range";
        s
  in
  let emit assoc view driver ~step =
    match observe with
    | None -> ()
    | Some f ->
        f
          {
            step;
            potential = Association.potential assoc ~n;
            high_water = Driver.high_water driver;
            live_words = Driver.live_words driver;
            present_words = View.present_words view;
          }
  in
  let run driver =
    let view = View.create driver in
    (* Stage 1: Robson steps 0..l, then l-1 null steps (no requests —
       nothing to simulate) and the line-9 association on the
       partition D(2l-1). *)
    let f =
      Pc_telemetry.Span.time stage1_span (fun () ->
          Robson_steps.run view ~m ~steps:stage1_steps)
    in
    (* Ghosts are a stage-1 device (Definition 4.1): they shaped the
       offset choices and refill counts above, but they do not cross
       into stage 2 — the potential they carried is the 2^l*q1 term of
       Lemma 4.5. Only live objects get line-9 associations; were
       ghosts associated too, a manager could reuse their long-freed
       chunks in stage 2 without paying any stage-2 compaction,
       breaking Lemma 4.6's accounting. *)
    View.drop_ghosts view;
    let assoc = Association.create ~chunk_log:((2 * ell) - 1) ~ell in
    let modulus = 1 lsl ell in
    View.iter_present view (fun oid addr size ->
        (* the object's f_l-occupying word (live objects never moved,
           so the original address is the current one). After a full
           stage 1 every survivor is f_l-occupying; a truncated stage
           (ablation) leaves non-occupying objects, which we associate
           with the chunk of their first word to keep the invariant
           "an associated object intersects its chunk". *)
        let delta = (f - addr) mod modulus in
        let delta = if delta < 0 then delta + modulus else delta in
        let w = if delta < size then addr + delta else addr in
        let idx = w / (1 lsl ((2 * ell) - 1)) in
        Association.assoc_whole assoc oid ~obj_size:size ~chunk:idx);
    emit assoc view driver ~step:((2 * ell) - 1);
    (* Stage 2: steps 2l .. log n - 2. *)
    for i = 2 * ell to log_n - 2 do
      Pc_telemetry.Span.enter stage2_span;
      Association.merge_step assoc;
      density_pass view assoc
        ~threshold:(if maintain_density then 1 lsl (i - ell) else 0);
      let size = 1 lsl (i + 2) in
      let count =
        int_of_float (Float.floor (cfg.x *. float_of_int m)) / size
      in
      let chunk = 1 lsl i in
      for _ = 1 to count do
        if Driver.live_words driver + size <= m then begin
          (* Claim 4.16 audit: an allocation (with the chunk reuse it
             entails) must grow u by at least 3/4 |o| - 2^l q(o),
             where q(o) is the associated space on the reused chunks
             (Definition 4.14). Moves during the allocation do not
             change u (association survives compaction). *)
          let u_before =
            if audit then Association.potential assoc ~n else 0
          in
          let oid = View.alloc view ~size in
          (* first chunk fully covered by the object *)
          let k0 = (View.addr view oid + chunk - 1) / chunk in
          let d1 = k0 and d2 = k0 + 1 and d3 = k0 + 2 in
          let q_o =
            if audit then
              Association.sum assoc d1 + Association.sum assoc d2
              + Association.sum assoc d3
            else 0
          in
          List.iter
            (fun d ->
              let vanished = Association.reset_chunk assoc d in
              List.iter (fun oid -> drop_if_orphaned view assoc oid) vanished)
            [ d1; d2; d3 ];
          Association.assoc_halves assoc oid ~obj_size:size ~chunk1:d1
            ~chunk2:d3;
          Association.set_middle assoc d2;
          if audit then begin
            let u_after = Association.potential assoc ~n in
            let floor = (3 * size / 4) - ((1 lsl ell) * q_o) in
            if u_after - u_before < floor then
              raise
                (Audit_failure
                   { step = i; delta_u = u_after - u_before; floor });
            Association.check_invariants assoc
          end
        end
      done;
      emit assoc view driver ~step:i;
      Pc_telemetry.Span.exit_ stage2_span
    done
  in
  ( cfg,
    Program.make
      ~name:(Fmt.str "pf[l=%d,c=%g]" ell c)
      ~live_bound:m ~max_size:n run )
