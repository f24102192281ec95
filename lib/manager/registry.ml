(* Named manager constructors, for the CLI, benches and examples.
   A manager keeps its per-execution state through [Manager.stateful],
   so one instance serves any number of executions one after another;
   executions that run at the same time (sweep workers) construct one
   instance each.

   The registry is extensible: [register] appends an entry and rejects
   duplicate keys loudly — silently shadowing an earlier entry would
   let two sweeps disagree about what a key means. Registration order
   is the presentation order everywhere (CLI listing, test suites,
   benches), so it must stay deterministic: the built-ins below
   register at module initialisation, in the order written. *)

type entry = {
  key : string;
  summary : string;
  moving : bool; (* uses the compaction budget *)
  construct : unit -> Manager.t;
}

let registered : entry list ref = ref []

let register e =
  if List.exists (fun e' -> e'.key = e.key) !registered then
    Fmt.invalid_arg
      "Registry.register: duplicate manager key %S (an entry with this key is \
       already registered)"
      e.key;
  registered := !registered @ [ e ]

let builtins =
  [
    {
      key = "first-fit";
      summary = "lowest-addressed gap that fits";
      moving = false;
      construct = (fun () -> First_fit.manager);
    };
    {
      key = "next-fit";
      summary = "first fit from a roving pointer";
      moving = false;
      construct = (fun () -> Next_fit.make ());
    };
    {
      key = "best-fit";
      summary = "smallest gap that fits";
      moving = false;
      construct = (fun () -> Best_fit.manager);
    };
    {
      key = "worst-fit";
      summary = "largest gap";
      moving = false;
      construct = (fun () -> Worst_fit.manager);
    };
    {
      key = "aligned-fit";
      summary = "Robson's A_o: lowest size-aligned address";
      moving = false;
      construct = (fun () -> Aligned_fit.manager);
    };
    {
      key = "buddy";
      summary = "binary buddy blocks";
      moving = false;
      construct = (fun () -> Buddy.make ());
    };
    {
      key = "segregated";
      summary = "slab-style size-class blocks";
      moving = false;
      construct = (fun () -> Segregated.make ());
    };
    {
      key = "tlsf";
      summary = "TLSF-style two-level good fit";
      moving = false;
      construct = (fun () -> Tlsf.make ());
    };
    {
      key = "compacting";
      summary = "c-partial first fit with window eviction";
      moving = true;
      construct = (fun () -> Compacting.make ());
    };
    {
      key = "bp-simple";
      summary = "Bendersky-Petrank (c+1)M bump-and-compact";
      moving = true;
      construct = (fun () -> Bp_simple.make ());
    };
    {
      key = "improved-ac";
      summary = "Theorem-2-inspired aligned placement with eviction";
      moving = true;
      construct = (fun () -> Improved_ac.make ());
    };
    {
      key = "semispace";
      summary = "two-space copying collector";
      moving = true;
      construct = (fun () -> Semispace.make ());
    };
    {
      key = "sliding";
      summary = "first fit with periodic full sliding compaction";
      moving = true;
      construct = (fun () -> Sliding.make ());
    };
    {
      key = "meshing";
      summary = "Mesh-style pages merged when bitmaps are disjoint";
      moving = true;
      construct = (fun () -> Meshing.make ());
    };
    {
      key = "compact-fit";
      summary = "Compact-fit size-class pages with move-on-free";
      moving = true;
      construct = (fun () -> Compact_fit.make ());
    };
    {
      key = "cost-oblivious";
      summary = "resizing buckets paid for by allocation volume";
      moving = true;
      construct = (fun () -> Cost_oblivious.make ());
    };
    {
      key = "polylog-realloc";
      summary = "aligned placement with power-of-two-epoch repacks";
      moving = true;
      construct = (fun () -> Polylog_realloc.make ());
    };
  ]

let () = List.iter register builtins
let entries () = !registered
let keys () = List.map (fun e -> e.key) !registered
let find key = List.find_opt (fun e -> e.key = key) !registered

let construct_exn key =
  match find key with
  | Some e -> e.construct ()
  | None ->
      Fmt.invalid_arg "unknown manager %S (available: %s)" key
        (String.concat ", " (keys ()))
