(* ------------------------------------------------------------------ *)
(* The generic worker pool.  One call = one pool: a cursor over the
   item array doles out work; completions flow back through a
   Mutex/Condition queue so the submitting domain can emit progress in
   completion order while workers keep running.  [Sweep.run_batch] and
   the differential fuzzer ([Wp_check.Differ]) both fan out here. *)

module Pool = struct
  type 'a progress = 'a -> seconds:float -> completed:int -> total:int -> unit

  type ('a, 'b) batch = {
    items : 'a array;
    results : 'b option array;
    queue_lock : Mutex.t;
    completion : Condition.t;  (** signalled on completion and worker exit *)
    mutable next : int;  (** cursor: next item index to hand out *)
    mutable finished : ('a * float) list;  (** completion events, newest first *)
    mutable failure : exn option;  (** first failure; stops the cursor *)
    mutable exited : int;  (** workers that have left their loop *)
  }

  let take batch =
    Mutex.lock batch.queue_lock;
    let item =
      if batch.failure <> None || batch.next >= Array.length batch.items then
        None
      else begin
        let i = batch.next in
        batch.next <- i + 1;
        Some i
      end
    in
    Mutex.unlock batch.queue_lock;
    item

  let run_one f batch i =
    let item = batch.items.(i) in
    match
      let t0 = Unix.gettimeofday () in
      let v = f item in
      (v, Unix.gettimeofday () -. t0)
    with
    | v, seconds ->
        Mutex.lock batch.queue_lock;
        batch.results.(i) <- Some v;
        batch.finished <- (item, seconds) :: batch.finished;
        Condition.signal batch.completion;
        Mutex.unlock batch.queue_lock
    | exception exn ->
        Mutex.lock batch.queue_lock;
        if batch.failure = None then batch.failure <- Some exn;
        Condition.signal batch.completion;
        Mutex.unlock batch.queue_lock

  let worker f batch () =
    let rec loop () =
      match take batch with
      | None ->
          Mutex.lock batch.queue_lock;
          batch.exited <- batch.exited + 1;
          Condition.signal batch.completion;
          Mutex.unlock batch.queue_lock
      | Some i ->
          run_one f batch i;
          loop ()
    in
    loop ()

  (* Drain completion events on the submitting domain until every
     worker has exited, emitting progress in completion order.  Events
     are collected under the lock but progress callbacks run with it
     released: a raising (or merely slow) callback must never leave
     [queue_lock] held — workers block on it in [take]/[run_one], so
     that would deadlock the whole pool.  A callback exception is
     recorded as the batch failure (stopping the cursor, like a job
     failure) and the pump keeps draining until the workers exit, so
     [map] still joins every domain before re-raising. *)
  let pump progress batch ~nworkers =
    let total = Array.length batch.items in
    let emitted = ref 0 in
    let callback_failed = ref false in
    let rec drain () =
      Mutex.lock batch.queue_lock;
      while batch.finished = [] && batch.exited < nworkers do
        Condition.wait batch.completion batch.queue_lock
      done;
      let events = List.rev batch.finished in
      batch.finished <- [];
      let all_exited = batch.exited >= nworkers in
      Mutex.unlock batch.queue_lock;
      List.iter
        (fun (item, seconds) ->
          incr emitted;
          match progress with
          | None -> ()
          | Some f ->
              if not !callback_failed then begin
                try f item ~seconds ~completed:!emitted ~total
                with exn ->
                  callback_failed := true;
                  Mutex.lock batch.queue_lock;
                  if batch.failure = None then batch.failure <- Some exn;
                  Mutex.unlock batch.queue_lock
              end)
        events;
      if not all_exited then drain ()
    in
    drain ()

  let run_sequential f progress batch =
    let total = Array.length batch.items in
    let completed = ref 0 in
    Array.iteri
      (fun i _ ->
        if batch.failure = None then begin
          run_one f batch i;
          match List.rev batch.finished with
          | [] -> ()
          | events ->
              batch.finished <- [];
              List.iter
                (fun (item, seconds) ->
                  incr completed;
                  match progress with
                  | None -> ()
                  | Some f -> f item ~seconds ~completed:!completed ~total)
                events
        end)
      batch.items

  let map ~workers ?progress f items =
    let batch =
      {
        items = Array.of_list items;
        results = Array.make (List.length items) None;
        queue_lock = Mutex.create ();
        completion = Condition.create ();
        next = 0;
        finished = [];
        failure = None;
        exited = 0;
      }
    in
    let nworkers = max 1 (min workers (Array.length batch.items)) in
    if nworkers <= 1 then run_sequential f progress batch
    else begin
      let domains =
        List.init nworkers (fun _ -> Domain.spawn (worker f batch))
      in
      pump progress batch ~nworkers;
      List.iter Domain.join domains
    end;
    (match batch.failure with Some exn -> raise exn | None -> ());
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None ->
               invalid_arg
                 "Sweep.Pool: worker pool drained with an unfilled result slot")
         batch.results)

  (* [map]'s all-or-nothing failure contract is right for sweeps (a
     raising job means the whole grid is suspect) but wrong for a
     server: there one poisoned request must not take down the
     batch-mates it happens to share a pool with.  Isolating each
     item's exception inside the mapped function keeps the cursor
     moving and every unrelated slot filled. *)
  let map_result ~workers ?progress f items =
    map ~workers ?progress
      (fun item -> try Ok (f item) with exn -> Error exn)
      items

  (* ---------------------------------------------------------------- *)
  (* A persistent pool: the daemon-shaped sibling of the one-shot
     [map].  Domains are spawned once and consume a FIFO of thunks
     until [shutdown], which drains everything already accepted before
     joining — the serve daemon's graceful-stop guarantee rests on
     exactly that property.  A raising task is the submitter's bug;
     the worker survives it (the exception is swallowed after the
     optional [on_error] callback), so one bad request never kills the
     domain serving everyone else. *)

  module Executor = struct
    type t = {
      lock : Mutex.t;
      work_available : Condition.t;
      queue : (unit -> unit) Queue.t;
      mutable stopping : bool;
      mutable running : int;  (** tasks currently executing *)
      on_error : (exn -> unit) option;
      mutable domains : unit Domain.t list;
    }

    let worker t () =
      let rec loop () =
        Mutex.lock t.lock;
        while Queue.is_empty t.queue && not t.stopping do
          Condition.wait t.work_available t.lock
        done;
        if Queue.is_empty t.queue then begin
          (* stopping and drained *)
          Mutex.unlock t.lock;
          ()
        end
        else begin
          let task = Queue.pop t.queue in
          t.running <- t.running + 1;
          Mutex.unlock t.lock;
          (try task ()
           with exn -> (
             match t.on_error with None -> () | Some f -> (try f exn with _ -> ())));
          Mutex.lock t.lock;
          t.running <- t.running - 1;
          Mutex.unlock t.lock;
          loop ()
        end
      in
      loop ()

    let create ?(workers = Domain.recommended_domain_count ()) ?on_error () =
      let t =
        {
          lock = Mutex.create ();
          work_available = Condition.create ();
          queue = Queue.create ();
          stopping = false;
          running = 0;
          on_error;
          domains = [];
        }
      in
      let workers = max 1 workers in
      t.domains <- List.init workers (fun _ -> Domain.spawn (worker t));
      t

    let workers t = List.length t.domains

    let submit t task =
      Mutex.lock t.lock;
      let accepted = not t.stopping in
      if accepted then begin
        Queue.push task t.queue;
        Condition.signal t.work_available
      end;
      Mutex.unlock t.lock;
      accepted

    let pending t =
      Mutex.lock t.lock;
      let n = Queue.length t.queue + t.running in
      Mutex.unlock t.lock;
      n

    let shutdown t =
      Mutex.lock t.lock;
      if not t.stopping then begin
        t.stopping <- true;
        Condition.broadcast t.work_available
      end;
      Mutex.unlock t.lock;
      List.iter Domain.join t.domains
  end
end

type job = { benchmark : string; config : Config.t }

type progress = job Pool.progress

(* A per-key once-cell: the table lock is only held to find/create the
   cell, so two workers computing different keys never serialise on
   each other — only a second request for the *same* key blocks until
   the first finishes. *)
type 'a once = { cell_lock : Mutex.t; mutable value : 'a option }

let once_create () = { cell_lock = Mutex.create (); value = None }

let once_get cell compute =
  Mutex.lock cell.cell_lock;
  match cell.value with
  | Some v ->
      Mutex.unlock cell.cell_lock;
      v
  | None ->
      Fun.protect
        ~finally:(fun () -> Mutex.unlock cell.cell_lock)
        (fun () ->
          let v = compute () in
          cell.value <- Some v;
          v)

type t = {
  workers : int;
  progress : progress option;
  tables_lock : Mutex.t;  (** guards the two hashtables (not the cells) *)
  preps : (string, Runner.prepared once) Hashtbl.t;
  results : (string, Stats.t once) Hashtbl.t;
  snapshot_cache : Snapshot_cache.t;
      (** converged fast-forward iterations, shared by every job this
          engine runs (thread-safe; scoped keys keep worlds apart) *)
}

let default_workers () = Domain.recommended_domain_count ()

let create ?workers ?progress () =
  {
    workers = max 1 (Option.value workers ~default:(default_workers ()));
    progress;
    tables_lock = Mutex.create ();
    preps = Hashtbl.create 32;
    results = Hashtbl.create 512;
    snapshot_cache = Snapshot_cache.create ();
  }

let workers t = t.workers
let snapshot_cache t = t.snapshot_cache

let config_key config = Digest.to_hex (Config.digest config)

let job_key job = job.benchmark ^ "|" ^ config_key job.config

let job_label job =
  Printf.sprintf "%s x %s @ %s" job.benchmark
    (Config.scheme_name job.config.Config.scheme)
    (Wp_cache.Geometry.to_string job.config.Config.icache)

let print_progress job ~seconds ~completed ~total =
  Printf.eprintf "[sweep %3d/%d] %-48s %6.2fs\n%!" completed total
    (job_label job) seconds

let dedup jobs =
  let seen = Hashtbl.create (List.length jobs) in
  List.filter
    (fun job ->
      let key = job_key job in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    jobs

let with_baselines jobs =
  dedup
    (List.concat_map
       (fun job ->
         [ job; { job with config = Config.with_scheme job.config Config.Baseline } ])
       jobs)

let find_or_add_cell t table key =
  Mutex.lock t.tables_lock;
  let cell =
    match Hashtbl.find_opt table key with
    | Some cell -> cell
    | None ->
        let cell = once_create () in
        Hashtbl.add table key cell;
        cell
  in
  Mutex.unlock t.tables_lock;
  cell

let prepared t name =
  let cell = find_or_add_cell t t.preps name in
  once_get cell (fun () -> Runner.prepare (Wp_workloads.Mibench.find name))

let stats t job =
  let cell = find_or_add_cell t t.results (job_key job) in
  once_get cell (fun () ->
      Runner.run_scheme ~snapshot_cache:t.snapshot_cache
        (prepared t job.benchmark) job.config)

let completed t =
  Mutex.lock t.tables_lock;
  let n =
    Hashtbl.fold
      (fun _ cell acc -> if cell.value <> None then acc + 1 else acc)
      t.results 0
  in
  Mutex.unlock t.tables_lock;
  n

(* Only sound when no workers are mutating the tables — i.e. between
   batches, which is when run_batch consults it. *)
let already_cached t job =
  Mutex.lock t.tables_lock;
  let cell = Hashtbl.find_opt t.results (job_key job) in
  Mutex.unlock t.tables_lock;
  match cell with Some { value = Some _; _ } -> true | _ -> false

(* Timelines are not memoised: a sampler observes one specific run, so
   the job is re-simulated (on the batched fast path) with a sampler
   attached.  The prepared benchmark is shared with the stats cache,
   and the stats returned here are bit-identical to [stats t job] — the
   invariance the differential fuzzer locks in. *)
let timeline ?schedule ?window_cycles t job =
  Runner.run_timeline ?schedule ?window_cycles (prepared t job.benchmark)
    job.config

let run_batch t jobs =
  let todo =
    List.filter (fun job -> not (already_cached t job)) (dedup jobs)
  in
  ignore
    (Pool.map ~workers:t.workers ?progress:t.progress
       (fun job -> ignore (stats t job))
       todo);
  List.map (fun job -> stats t job) jobs
