module Pool = Wp_sim.Sweep.Pool
module Config = Wp_sim.Config
module Runner = Wp_sim.Runner
module Simulator = Wp_sim.Simulator
module Stats = Wp_sim.Stats
module Machine = Wp_mp.Machine
module P = Protocol

let ( let* ) = Result.bind

(* What the store holds for each request kind: everything its reply
   needs, so a hit — from memory or from disk after a restart — answers
   exactly what the computation did. *)
type entry =
  | Sim of Stats.t
  | Mp of { aggregate : Stats.t; switches : int; kernel_runs : int }
  | Advise of P.advise_result

(* How a request learns its job's outcome: a callback, run on the
   executor domain that completes the job (or inline on a store hit),
   which enqueues the response — no thread parks per pending request. *)
type waiter = (entry, string) result -> unit

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  out_lock : Mutex.t;
  out_cond : Condition.t;
  outbox : string Queue.t;
  mutable outstanding : int;  (** dispatched, response not yet enqueued *)
  mutable reader_done : bool;
  mutable dead : bool;  (** a write failed; discard further output *)
}

type t = {
  listen_fd : Unix.file_descr;
  actual_endpoint : P.endpoint;
  unix_path : string option;  (** to unlink after the run *)
  exec : Pool.Executor.t;
  store : entry Store.t;
  engine : Wp_sim.Sweep.t;  (** memoised [Runner.prepare] only *)
  codes_lock : Mutex.t;
  codes : (string * bool, Digest.t) Hashtbl.t;
      (** (benchmark, placed layout?) -> {!Store.code_digest} *)
  inflight_lock : Mutex.t;
  inflight : (string, waiter list ref) Hashtbl.t;
      (** key -> requests coalesced onto the job computing it *)
  stop_pipe_r : Unix.file_descr;
  stop_pipe_w : Unix.file_descr;
  state_lock : Mutex.t;
  mutable stopping : bool;
  mutable conns : (Thread.t * Thread.t) list;
  started : float;
  requests : int Atomic.t;
  sim_requests : int Atomic.t;
  computations : int Atomic.t;
  hits_memory : int Atomic.t;
  hits_disk : int Atomic.t;
  coalesced_count : int Atomic.t;
  errors : int Atomic.t;
}

let computations t = Atomic.get t.computations
let endpoint t = t.actual_endpoint

let create ?workers ?store_dir ~endpoint () =
  let* addr = P.sockaddr_of_endpoint endpoint in
  let* store = Store.create ?dir:store_dir () in
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let unix_path =
    match endpoint with P.Unix_socket p -> Some p | P.Tcp _ -> None
  in
  (* a stale socket file from a previous daemon would make bind fail *)
  (match unix_path with
  | Some p when Sys.file_exists p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | _ -> ());
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    (try
       Unix.bind fd addr;
       Unix.listen fd 128
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let actual_endpoint =
      match (endpoint, Unix.getsockname fd) with
      | P.Tcp (host, _), Unix.ADDR_INET (_, port) -> P.Tcp (host, port)
      | ep, _ -> ep
    in
    (fd, actual_endpoint)
  with
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s(%s): %s"
           (P.endpoint_to_string endpoint)
           fn arg (Unix.error_message e))
  | listen_fd, actual_endpoint ->
      let stop_pipe_r, stop_pipe_w = Unix.pipe () in
      Ok
        {
          listen_fd;
          actual_endpoint;
          unix_path;
          exec = Pool.Executor.create ?workers ();
          store;
          engine = Wp_sim.Sweep.create ~workers:1 ();
          codes_lock = Mutex.create ();
          codes = Hashtbl.create 64;
          inflight_lock = Mutex.create ();
          inflight = Hashtbl.create 64;
          stop_pipe_r;
          stop_pipe_w;
          state_lock = Mutex.create ();
          stopping = false;
          conns = [];
          started = Unix.gettimeofday ();
          requests = Atomic.make 0;
          sim_requests = Atomic.make 0;
          computations = Atomic.make 0;
          hits_memory = Atomic.make 0;
          hits_disk = Atomic.make 0;
          coalesced_count = Atomic.make 0;
          errors = Atomic.make 0;
        }

let stop t =
  Mutex.lock t.state_lock;
  let first = not t.stopping in
  t.stopping <- true;
  Mutex.unlock t.state_lock;
  if first then
    (* wake the accept loop's select *)
    try ignore (Unix.write t.stop_pipe_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let server_stats t =
  {
    P.requests = Atomic.get t.requests;
    sim_requests = Atomic.get t.sim_requests;
    computations = Atomic.get t.computations;
    hits_memory = Atomic.get t.hits_memory;
    hits_disk = Atomic.get t.hits_disk;
    coalesced = Atomic.get t.coalesced_count;
    errors = Atomic.get t.errors;
    store_entries = Store.memory_entries t.store;
    inflight =
      Mutex.protect t.inflight_lock (fun () -> Hashtbl.length t.inflight);
    workers = Pool.Executor.workers t.exec;
    uptime_s = Unix.gettimeofday () -. t.started;
  }

(* --- per-connection output ------------------------------------------ *)

let enqueue_locked conn resp =
  Queue.push (P.response_to_line resp) conn.outbox;
  Condition.signal conn.out_cond

(* Immediate (synchronous) reply to a request handled inline. *)
let reply conn resp =
  Mutex.protect conn.out_lock (fun () -> enqueue_locked conn resp)

(* Completion of a previously dispatched request. *)
let complete conn resp =
  Mutex.protect conn.out_lock (fun () ->
      conn.outstanding <- conn.outstanding - 1;
      enqueue_locked conn resp)

let dispatch conn =
  Mutex.protect conn.out_lock (fun () -> conn.outstanding <- conn.outstanding + 1)

let reply_error t conn id msg =
  Atomic.incr t.errors;
  reply conn { P.id; reply = P.Error_reply msg }

(* --- the job pipeline ------------------------------------------------- *)

(* One request kind's computation, as [resolve] sees it: the content
   address, the compute, and (when verifying) the same run on the
   reference loop, which must agree bit for bit. *)
type job = {
  key : string;
  no_cache : bool;
  compute : unit -> entry;
  reference : (unit -> entry) option;
}

let check_reference job v =
  match job.reference with
  | None -> Ok ()
  | Some reference -> (
      match (v, reference ()) with
      | (Sim a | Mp { aggregate = a; _ }), (Sim b | Mp { aggregate = b; _ })
        when not (Stats.equal a b) ->
          Error
            (Format.asprintf
               "verification failed: served result diverges from the \
                reference loop:@ %a"
               Stats.pp_diff (a, b))
      | _ -> Ok ()
      | exception exn ->
          Error
            (Printf.sprintf "verification failed: reference run raised: %s"
               (Printexc.to_string exn)))

(* Run one computation (on an executor domain, or inline when the
   executor is already draining), publish it to the store, then take
   the job out of the in-flight table and answer it and every request
   coalesced onto it.  The store [put] happens strictly before that
   removal, so a request that misses the in-flight table afterwards is
   guaranteed to hit the store — the computation counter can never
   exceed the number of distinct keys (plus deliberate [no_cache]
   runs, which never register). *)
let run_job t job first =
  let outcome =
    match job.compute () with
    | v -> (
        Atomic.incr t.computations;
        match check_reference job v with
        | Ok () ->
            Store.put t.store job.key v;
            Ok v
        | Error _ as e -> e)
    | exception exn ->
        Error (Printf.sprintf "computation failed: %s" (Printexc.to_string exn))
  in
  let coalesced =
    if job.no_cache then []
    else
      Mutex.protect t.inflight_lock (fun () ->
          let waiters = !(Hashtbl.find t.inflight job.key) in
          Hashtbl.remove t.inflight job.key;
          waiters)
  in
  (* one raising waiter must not starve the others *)
  List.iter (fun k -> try k outcome with _ -> ()) (first :: List.rev coalesced)

(* Resolve one job through the full memoisation stack — store, in-flight
   coalescing, executor — calling [k] exactly once with the source and
   outcome: synchronously on a store hit, from an executor domain
   otherwise.  Every request kind, and every cell of a grid, comes
   through here. *)
let resolve t job k =
  let start () =
    let task () = run_job t job (k P.Computed) in
    (* if the executor is draining (shutdown has begun) the request was
       still accepted: run it inline on the reader thread rather than
       lose it *)
    if not (Pool.Executor.submit t.exec task) then task ()
  in
  let hit () =
    match Store.find t.store job.key with
    | Some (v, `Memory) ->
        Some (fun () -> Atomic.incr t.hits_memory; k P.Memory (Ok v))
    | Some (v, `Disk) ->
        Some (fun () -> Atomic.incr t.hits_disk; k P.Disk (Ok v))
    | None -> None
  in
  if job.no_cache then
    (* deliberate fresh run: no store read, no coalescing *)
    start ()
  else
    match hit () with
    | Some answer -> answer ()
    | None -> (
        Mutex.lock t.inflight_lock;
        match Hashtbl.find_opt t.inflight job.key with
        | Some waiters ->
            waiters := k P.Coalesced :: !waiters;
            Mutex.unlock t.inflight_lock;
            Atomic.incr t.coalesced_count
        | None -> (
            (* recheck under the in-flight lock: a computation that
               just completed publishes to the store before
               deregistering, so this order can't miss both tables and
               recompute *)
            match hit () with
            | Some answer ->
                Mutex.unlock t.inflight_lock;
                answer ()
            | None ->
                Hashtbl.replace t.inflight job.key (ref []);
                Mutex.unlock t.inflight_lock;
                start ()))

(* Keys carry their kind, so a store entry of another kind under a
   request's key would take an MD5 collision; answer it as an error
   all the same. *)
let wrong_kind = Error "store entry of another request kind"

(* Answer one request: its validation error at once, or its job's
   outcome, turned into the reply by [encode]. *)
let answer t conn id request =
  Atomic.incr t.sim_requests;
  match request with
  | Error msg -> reply_error t conn id msg
  | Ok (job, encode) ->
      dispatch conn;
      resolve t job (fun source outcome ->
          let reply =
            match Result.bind outcome (encode source) with
            | Ok reply -> reply
            | Error msg ->
                Atomic.incr t.errors;
                P.Error_reply msg
          in
          complete conn { P.id; reply })

(* The prepared benchmark and the code digest of the layout [config]
   runs: the per-benchmark half of a sim or advise key.  Marshalling
   the program for it costs about a millisecond, so the digest is
   computed once per (benchmark, layout), under [codes_lock] (a [Lazy]
   would race when forced from two domains). *)
let prepared t bench config =
  match Wp_sim.Sweep.prepared t.engine bench with
  | exception Not_found -> Error (Printf.sprintf "unknown benchmark %S" bench)
  | exception exn ->
      Error (Printf.sprintf "prepare failed: %s" (Printexc.to_string exn))
  | prep ->
      let placed = Runner.layout_for prep config == prep.Runner.placed_layout in
      let slot = (bench, placed) in
      Mutex.protect t.codes_lock (fun () ->
          match Hashtbl.find_opt t.codes slot with
          | Some code -> Ok (prep, code)
          | None ->
              let code = Store.code_digest prep config in
              Hashtbl.replace t.codes slot code;
              Ok (prep, code))

(* --- request kinds ---------------------------------------------------- *)

(* Each kind validates its request into a job plus the encoder that
   turns the job's entry into the reply. *)

let sim_job t ~bench ~config ~no_cache ~verify =
  let* prep, code = prepared t bench config in
  Ok
    {
      key = Store.sim_address ~code config;
      no_cache;
      (* every computation shares the sweep engine's snapshot cache:
         converged loop iterations recorded for one request
         fast-forward every later request whose fingerprints coincide —
         most visibly the cells of a grid, which differ only in
         configuration.  The result is bit-identical either way (the
         cache key pins the compiled trace and the full config; the
         differ enforces the equality). *)
      compute =
        (fun () ->
          Sim
            (Runner.run_scheme
               ~snapshot_cache:(Wp_sim.Sweep.snapshot_cache t.engine)
               prep config));
      reference =
        (if not verify then None
         else
           Some
             (fun () ->
               Sim
                 (Simulator.run_compiled ~reference_only:true ~config
                    ~trace:prep.Runner.trace_large
                    (Runner.compiled_for prep config))));
    }

let sim_result job source = function
  | Sim stats -> Ok (P.sim_result_of_stats ~key:job.key ~source stats)
  | Mp _ | Advise _ -> wrong_kind

let sim_request t (sr : P.sim_request) =
  let* config = P.config_of_sim sr in
  let* job =
    sim_job t ~bench:sr.P.benchmark ~config ~no_cache:sr.P.no_cache
      ~verify:sr.P.verify
  in
  Ok
    ( job,
      fun source v -> Result.map (fun r -> P.Sim_reply r) (sim_result job source v)
    )

let mp_request (mr : P.mp_request) =
  let* config = P.config_of_mp mr in
  let* mix =
    try P.resolve_mix mr
    with exn ->
      Error (Printf.sprintf "mix resolution failed: %s" (Printexc.to_string exn))
  in
  let options = P.options_of_mp mr in
  let run ?reference_only () =
    let r = Machine.run ?reference_only ~config ~options mix in
    Mp
      {
        aggregate = r.Machine.aggregate;
        switches = r.Machine.switches;
        kernel_runs = r.Machine.kernel_runs;
      }
  in
  let key = Store.mp_address mix config options in
  Ok
    ( {
        key;
        no_cache = mr.P.mp_no_cache;
        compute = run;
        reference =
          (if mr.P.mp_verify then Some (run ~reference_only:true) else None);
      },
      fun source -> function
        | Mp { aggregate; switches; kernel_runs } ->
            Ok
              (P.Mp_reply
                 (P.mp_result_of_stats ~key ~source ~processes:(List.length mix)
                    ~switches ~kernel_runs aggregate))
        | Sim _ | Advise _ -> wrong_kind )

let advise_request t (ar : P.advise_request) =
  let* config = P.config_of_advise ar in
  let* prep, code = prepared t ar.P.ad_benchmark config in
  let key =
    Store.advise_address ~code ~benchmark:ar.P.ad_benchmark
      ~page_bytes:ar.P.ad_page_bytes config
  in
  let compute () =
    Advise
      (P.advise_result_of_report ~key ~source:P.Computed
         (P.analyze_advise prep ar config))
  in
  Ok
    ( { key; no_cache = ar.P.ad_no_cache; compute; reference = None },
      fun source -> function
        | Advise r -> Ok (P.Advise_reply { r with P.adr_source = source })
        | Sim _ | Mp _ -> wrong_kind )

(* One grid = one dispatched slot: cells stream through [reply] as
   their computations (or store hits) land, in completion order; the
   terminal [Grid_done] goes through [complete] and is guaranteed to
   be enqueued after every cell (each cell's enqueue happens before
   its countdown decrement, which happens before the final decrement).
   Cell failures are per-cell — the rest of the grid still runs. *)
let handle_grid t conn id (gr : P.grid_request) =
  match P.grid_cells gr with
  | [] -> reply_error t conn id "empty grid"
  | cells ->
      dispatch conn;
      let n = List.length cells in
      let remaining = Atomic.make n in
      let computed = Atomic.make 0 in
      let g_memory = Atomic.make 0 in
      let g_disk = Atomic.make 0 in
      let g_coalesced = Atomic.make 0 in
      let g_errors = Atomic.make 0 in
      let finish_cell () =
        if Atomic.fetch_and_add remaining (-1) = 1 then
          complete conn
            {
              P.id;
              reply =
                P.Grid_done
                  {
                    P.gs_cells = n;
                    gs_computed = Atomic.get computed;
                    gs_hits_memory = Atomic.get g_memory;
                    gs_hits_disk = Atomic.get g_disk;
                    gs_coalesced = Atomic.get g_coalesced;
                    gs_errors = Atomic.get g_errors;
                  };
            }
      in
      List.iteri
        (fun idx (bench, scheme, size_kb, ways) ->
          let emit outcome =
            reply conn
              {
                P.id;
                reply =
                  P.Grid_cell_reply
                    {
                      P.gc_index = idx;
                      gc_benchmark = bench;
                      gc_scheme = scheme;
                      gc_size_kb = size_kb;
                      gc_ways = ways;
                      gc_outcome = outcome;
                    };
              };
            finish_cell ()
          in
          let cell_error msg =
            Atomic.incr g_errors;
            Atomic.incr t.errors;
            emit (Error msg)
          in
          match
            let* config =
              P.config_of_geometry ~scheme ~size_kb ~ways
                ~line_bytes:gr.P.g_line_bytes
            in
            sim_job t ~bench ~config ~no_cache:gr.P.g_no_cache ~verify:false
          with
          | Error msg -> cell_error msg
          | Ok job ->
              resolve t job (fun source outcome ->
                  match Result.bind outcome (sim_result job source) with
                  | Ok r ->
                      Atomic.incr
                        (match source with
                        | P.Computed -> computed
                        | P.Memory -> g_memory
                        | P.Disk -> g_disk
                        | P.Coalesced -> g_coalesced);
                      emit (Ok r)
                  | Error msg -> cell_error msg))
        cells

let handle_line t conn line =
  Atomic.incr t.requests;
  match P.request_of_line line with
  | Error msg -> reply_error t conn (P.id_of_line line) msg
  | Ok { P.id; payload } -> (
      match payload with
      | P.Ping -> reply conn { P.id; reply = P.Pong }
      | P.Server_stats ->
          reply conn { P.id; reply = P.Stats_reply (server_stats t) }
      | P.Shutdown ->
          reply conn { P.id; reply = P.Shutting_down };
          stop t
      | P.Sim sr -> answer t conn id (sim_request t sr)
      | P.Mp mr -> answer t conn id (mp_request mr)
      | P.Advise ar -> answer t conn id (advise_request t ar)
      | P.Grid gr ->
          Atomic.incr t.sim_requests;
          handle_grid t conn id gr)

(* --- connection threads --------------------------------------------- *)

(* The longest request line read: a grid over every benchmark, scheme
   and geometry is a few kilobytes. *)
let max_line_bytes = 1 lsl 20

(* [input_line] that stops at [max_line_bytes]: [None] past the cap. *)
let input_bounded_line ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Buffer.contents buf)
    | _ when Buffer.length buf >= max_line_bytes -> None
    | c ->
        Buffer.add_char buf c;
        go ()
    | exception End_of_file when Buffer.length buf > 0 ->
        Some (Buffer.contents buf)
  in
  go ()

let reader_loop t conn () =
  let buf = Buffer.create 256 in
  let rec loop () =
    match input_bounded_line conn.ic buf with
    | Some line ->
        (* isolate the handler: a crashing request must answer that
           request, not end the connection *)
        (try handle_line t conn line
         with exn ->
           reply_error t conn 0
             (Printf.sprintf "internal error: %s" (Printexc.to_string exn)));
        loop ()
    | None ->
        (* the rest of the line is unbounded: answer and hang up *)
        Atomic.incr t.requests;
        reply_error t conn 0
          (Printf.sprintf "request line longer than %d bytes" max_line_bytes)
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
  in
  loop ();
  Mutex.lock conn.out_lock;
  conn.reader_done <- true;
  Condition.broadcast conn.out_cond;
  Mutex.unlock conn.out_lock

let writer_loop conn () =
  let rec loop () =
    Mutex.lock conn.out_lock;
    while
      Queue.is_empty conn.outbox
      && not (conn.reader_done && conn.outstanding = 0)
    do
      Condition.wait conn.out_cond conn.out_lock
    done;
    if Queue.is_empty conn.outbox then begin
      (* reader finished and every dispatched request answered *)
      Mutex.unlock conn.out_lock;
      ()
    end
    else begin
      let line = Queue.pop conn.outbox in
      Mutex.unlock conn.out_lock;
      (if not conn.dead then
         try
           output_string conn.oc line;
           flush conn.oc
         with Sys_error _ | Unix.Unix_error _ -> conn.dead <- true);
      loop ()
    end
  in
  loop ();
  (try flush conn.oc with Sys_error _ | Unix.Unix_error _ -> ());
  (* both channels share the fd; close it exactly once (the reader has
     already returned — it set [reader_done] before the writer exits) *)
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let spawn_conn t fd =
  let conn =
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      out_lock = Mutex.create ();
      out_cond = Condition.create ();
      outbox = Queue.create ();
      outstanding = 0;
      reader_done = false;
      dead = false;
    }
  in
  let reader = Thread.create (reader_loop t conn) () in
  let writer = Thread.create (writer_loop conn) () in
  Mutex.lock t.state_lock;
  t.conns <- (reader, writer) :: t.conns;
  Mutex.unlock t.state_lock

let run t =
  (* a client vanishing mid-write must be an EPIPE error, not a fatal
     signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec accept_loop () =
    match Unix.select [ t.listen_fd; t.stop_pipe_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | readable, _, _ ->
        if List.mem t.stop_pipe_r readable then begin
          (* the kernel completes connections into the listen backlog
             before we accept them — a client may already have
             connected and sent requests.  Those are accepted work:
             drain the backlog before closing the listener, or the
             close would RST them mid-burst. *)
          Unix.set_nonblock t.listen_fd;
          let rec drain_backlog () =
            match Unix.accept t.listen_fd with
            | fd, _ ->
                Unix.clear_nonblock fd;
                spawn_conn t fd;
                drain_backlog ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ -> ()
          in
          drain_backlog ()
        end
        else (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              spawn_conn t fd;
              accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error _ ->
              (* listener closed under us, or a transient accept
                 failure during shutdown *)
              Mutex.lock t.state_lock;
              let stopping = t.stopping in
              Mutex.unlock t.state_lock;
              if not stopping then accept_loop ())
  in
  accept_loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  (* serve connected clients until they disconnect *)
  let rec join_all () =
    Mutex.lock t.state_lock;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.state_lock;
    match conns with
    | [] -> ()
    | _ ->
        List.iter
          (fun (reader, writer) ->
            Thread.join reader;
            Thread.join writer)
          conns;
        join_all ()
  in
  join_all ();
  (* drain every accepted computation, then release the domains *)
  Pool.Executor.shutdown t.exec;
  try ignore (Unix.close t.stop_pipe_r); Unix.close t.stop_pipe_w
  with Unix.Unix_error _ -> ()

let start t = Thread.create run t
