(* A supervised worker pool: N worker Domains fed from one shared
   queue, each watched by a monitor thread that restarts it when it
   dies. It is the engine's only pool: [pc serve] keeps one alive for
   the daemon's lifetime, and a batch sweep runs on a transient one
   through [map_array].

   The contract with [exec] mirrors the engine's failure taxonomy:
   [exec] is expected to absorb per-job failures itself (the engine
   captures, retries and degrades them to [Error] results) — any
   exception that *escapes* a worker is therefore a worker death, not
   a job failure. The monitor thread sees it via [Domain.join],
   requeues the job the dead worker held (front of the queue, so a
   crash cannot starve a job behind fresh arrivals), bumps the restart
   counter, and spawns a replacement domain. Exceptions matching
   [fatal] instead abort the whole pool — the simulated kill -9 of
   crash-recovery drills: no requeue, no respawn, [on_fatal] fires
   once, and the queue stops dispensing so the remaining workers wind
   down as soon as they finish (or die on) their current job.

   All shared state lives behind one mutex; [Condition.broadcast]
   wakes both idle workers (new job / shutdown) and drain waiters
   (queue went empty). Monitors are systhreads, not domains — they
   spend their lives blocked in [Domain.join] and never compute. *)

type 'a slot = {
  mutable current : 'a option; (* job held by this worker, under mutex *)
  mutable domain : unit Domain.t option;
}

type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : 'a Queue.t;
  slots : 'a slot array;
  exec : 'a -> unit;
  on_restart : 'a -> unit;
  fatal : exn -> bool;
  on_fatal : exn -> unit;
  mutable in_flight : int;
  mutable restarts : int;
  mutable stopping : bool; (* finish the queue, then exit *)
  mutable aborted : bool; (* fatal: stop dispensing immediately *)
  mutable fatal_exn : exn option;
  monitors : Thread.t list ref;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The worker loop, run on its own Domain. Exceptions from [t.exec]
   deliberately escape — the monitor converts them into a restart. *)
let worker t slot =
  let rec loop () =
    let job =
      locked t (fun () ->
          while Queue.is_empty t.queue && not (t.stopping || t.aborted) do
            Condition.wait t.cond t.mutex
          done;
          if t.aborted || (t.stopping && Queue.is_empty t.queue) then None
          else begin
            let job = Queue.pop t.queue in
            slot.current <- Some job;
            t.in_flight <- t.in_flight + 1;
            Some job
          end)
    in
    match job with
    | None -> ()
    | Some job ->
        t.exec job;
        locked t (fun () ->
            slot.current <- None;
            t.in_flight <- t.in_flight - 1;
            Condition.broadcast t.cond);
        loop ()
  in
  loop ()

(* Requeue at the front: a requeued job was admitted before anything
   currently queued, and front placement keeps a repeatedly-killed job
   from being starved by fresh arrivals. *)
let requeue_front t job =
  let rest = Queue.copy t.queue in
  Queue.clear t.queue;
  Queue.push job t.queue;
  Queue.transfer rest t.queue

let monitor t slot =
  let rec watch () =
    let d =
      locked t (fun () ->
          if t.aborted || (t.stopping && Queue.is_empty t.queue && slot.current = None)
          then None
          else begin
            let d = Domain.spawn (fun () -> worker t slot) in
            slot.domain <- Some d;
            d |> Option.some
          end)
    in
    match d with
    | None -> ()
    | Some d -> (
        match Domain.join d with
        | () ->
            (* Clean exit: the worker saw stop/abort with nothing held. *)
            locked t (fun () -> slot.domain <- None)
        | exception e ->
            let again =
              locked t (fun () ->
                  slot.domain <- None;
                  (* The dead worker held its job past the point of no
                     return only if it journaled it — in which case the
                     requeued copy resolves from the journal and never
                     re-executes. Either way the job lives in exactly
                     one place again: the queue. *)
                  let held = slot.current in
                  slot.current <- None;
                  if Option.is_some held then t.in_flight <- t.in_flight - 1;
                  if t.fatal e then begin
                    if not t.aborted then begin
                      t.aborted <- true;
                      t.fatal_exn <- Some e
                    end;
                    Condition.broadcast t.cond;
                    `Fatal e
                  end
                  else begin
                    (match held with
                    | Some job ->
                        t.on_restart job;
                        requeue_front t job
                    | None -> ());
                    t.restarts <- t.restarts + 1;
                    Condition.broadcast t.cond;
                    `Respawn
                  end)
            in
            (match again with
            | `Fatal e -> t.on_fatal e
            | `Respawn -> watch ()))
  in
  watch ()

let create ?(on_restart = fun _ -> ()) ?(fatal = fun _ -> false)
    ?(on_fatal = fun _ -> ()) ~workers exec =
  let workers = max 1 workers in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      slots = Array.init workers (fun _ -> { current = None; domain = None });
      exec;
      on_restart;
      fatal;
      on_fatal;
      in_flight = 0;
      restarts = 0;
      stopping = false;
      aborted = false;
      fatal_exn = None;
      monitors = ref [];
    }
  in
  t.monitors :=
    Array.to_list
      (Array.map (fun slot -> Thread.create (fun () -> monitor t slot) ()) t.slots);
  t

let push t job =
  locked t (fun () ->
      if t.stopping || t.aborted then
        invalid_arg "Supervisor.push: pool is shutting down";
      Queue.push job t.queue;
      Condition.broadcast t.cond)

let pending t = locked t (fun () -> Queue.length t.queue)
let in_flight t = locked t (fun () -> t.in_flight)
let restarts t = locked t (fun () -> t.restarts)
let aborted t = locked t (fun () -> t.aborted)
let fatal_exn t = locked t (fun () -> t.fatal_exn)

let idle t =
  locked t (fun () -> Queue.is_empty t.queue && t.in_flight = 0)

let drain t =
  locked t (fun () ->
      while
        not (t.aborted || (Queue.is_empty t.queue && t.in_flight = 0))
      do
        Condition.wait t.cond t.mutex
      done)

let shutdown t =
  locked t (fun () ->
      t.stopping <- true;
      Condition.broadcast t.cond);
  List.iter Thread.join !(t.monitors)

(* The batch engine's parallel map, on the same pool [pc serve] uses.
   Each task captures its own exception, so no worker dies and the
   supervision never fires; once every task has settled and the pool
   is shut down, the first exception in submission order is re-raised.
   A fault-injected kill therefore escapes the caller only after every
   other job's side effects (journal line, cache entry) have landed. *)
let map_array ~jobs f items =
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then Array.map f items
  else begin
    let results = Array.make n None in
    let pool =
      create ~workers:(min jobs n) (fun i ->
          results.(i) <-
            Some
              (match f items.(i) with
              | r -> Ok r
              | exception e -> Error (e, Printexc.get_raw_backtrace ())))
    in
    for i = 0 to n - 1 do
      push pool i
    done;
    drain pool;
    shutdown pool;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* drained: every task stored a result *))
      results
  end
