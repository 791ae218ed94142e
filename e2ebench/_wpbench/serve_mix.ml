(* serve_mix: a child `wayplace_cli serve` under a fixed offered load,
   then at saturation.

   Set-up spawns the daemon on a fresh socket and store several times
   and times spawn-to-first-Pong.  The last daemon computes the popular
   keys one request at a time (the warm-up), then receives seeded
   schedules of the Sim, Mp, Advise and Grid mix over two connections:
   an open loop at a fixed offered rate, where every request is timed
   from its due time, and a closed loop of the mix's warm requests that
   sends as fast as the daemon answers, whose throughput is the
   daemon's saturation rate.  Every reply is compared with the
   library's recorded result for the same request afterwards. *)

open Util
module P = Wayplace.Serve.Protocol
module Client = Wayplace.Serve.Client

(* Offered requests per second in the open loop: about an eighth of the
   closed loop's throughput on the host of record, and a sixth of the
   lowest throughput measured with cold computes in the closed loop
   (README.md), so the open loop measures latency below saturation. *)
let rate = 120.0

let connections = 2

(* Requests each connection keeps in flight in the closed loop. *)
let window = 8

let spawns = 21
let mp_mixes = [ "crc,sha,bitcount"; "susan_c,cjpeg,patricia"; "tiff2bw,ispell,rijndael_e" ]
let mp_quanta = [ 2_000; 50_000 ]

(* ------------------------------------------------------------------ *)
(* The child daemon.                                                    *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

type daemon = { pid : int; dir : string; endpoint : P.endpoint }

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Kill (if still running), reap, and remove the daemon's directory. *)
let dispose d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_exit d.pid ~timeout:5.0;
  rm_rf d.dir

let stop d =
  (match Client.connect ~attempts:1 d.endpoint with
  | Ok c ->
      ignore (Client.shutdown c);
      Client.close c
  | Error _ -> ());
  wait_exit d.pid ~timeout:10.0;
  rm_rf d.dir

let counter = ref 0

(* Spawn on a fresh socket and store under [out]; returns the daemon
   and the seconds from spawn to the first Pong. *)
let spawn ~cli ~out =
  incr counter;
  let dir = Filename.concat out (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let endpoint = P.Unix_socket sock in
  let t0 = now () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "-j"; "1"; "--quiet"; "--socket"; sock; "--store"; Filename.concat dir "store" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; dir; endpoint } in
  match Client.connect ~attempts:25_000 ~retry_delay_s:0.0002 endpoint with
  | Error msg ->
      dispose d;
      failwith ("daemon did not come up: " ^ msg)
  | Ok c ->
      let pong = Client.ping c in
      let dt = now () -. t0 in
      Client.close c;
      (match pong with
      | Ok () -> ()
      | Error msg ->
          dispose d;
          failwith ("daemon did not answer ping: " ^ msg));
      (d, dt)

(* ------------------------------------------------------------------ *)
(* The request schedule.                                                *)

type req = {
  due : float;  (** seconds after the open loop starts; nan when unpaced *)
  payload : P.payload;
  kind : string;  (** sim | mp | advise | grid *)
}

(* The popular keys are computed once, one request at a time, before
   the timed phases: the figure-4 pairs (baseline and 16KB way-placement
   at the paper geometry) of every program, every mp key and every
   advise key.  Each timed phase then draws the same stationary mix:
   skewed warm Sim hits on the figure-4 pairs, cold Sim computes at
   evenly spaced slots, warm Mp and Advise hits, and small Grid
   requests over warm keys.  The open loop's cold keys are one in four
   of the others (another scheme, or the 16KB/8w geometry) in canonical
   order, so it computes the same keys on every seed, each once, writing
   it to the disk store.  The closed loop runs as three segments as long
   as the open loop, each a throughput sample, with the warm requests
   alone: cold computes in it occupied the second vCPU the client needs
   too, and its throughput then spread by 0.22-0.28 over ten runs
   against 0.13 without them.

   The shares (80% Sim, 7% Mp, 9% Advise, 4% Grid) and the
   weight-1/sqrt(rank) skew over a fixed popularity ranking are
   assumptions: the repository records no request traffic to derive
   them from.  Each phase holds every warm request in exactly its share
   of the phase and the seed only orders them, so every seed offers the
   same work. *)

(* [m] copies of the weighted items in proportion to their weights, by
   largest remainder (ties to the earlier item). *)
let apportion m weighted =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 weighted in
  let quotas =
    List.mapi
      (fun i (x, w) ->
        let q = float_of_int m *. w /. total in
        (i, x, int_of_float q, q -. Float.of_int (int_of_float q)))
      weighted
  in
  let short = m - List.fold_left (fun a (_, _, c, _) -> a + c) 0 quotas in
  let topped =
    List.sort (fun (i, _, _, f) (j, _, _, g) -> compare (g, i) (f, j)) quotas
    |> List.filteri (fun r _ -> r < short)
    |> List.map (fun (i, _, _, _) -> i)
  in
  List.concat_map
    (fun (i, x, c, _) -> List.init (if List.mem i topped then c + 1 else c) (fun _ -> x))
    quotas

let schedule ~seed ~seconds =
  let rng = Random.State.make [| seed; 4 |] in
  let suite = Mibench.names in
  let sim b s (size_kb, ways) = P.Sim (P.sim_request ~size_kb ~ways ~benchmark:b ~scheme:s ()) in
  let head = List.concat_map (fun b -> [ sim b Config.Baseline (32, 32); sim b (wp 16) (32, 32) ]) suite in
  let tail =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun g -> List.map (fun s -> sim b s g) five_schemes)
          [ (32, 32); (16, 8) ])
      suite
    |> List.filter (fun r -> not (List.mem r head))
  in
  let mps =
    List.concat_map
      (fun mix -> List.map (fun quantum -> P.Mp (P.mp_request ~quantum ~mix ~scheme:(wp 16) ())) mp_quanta)
      mp_mixes
  in
  let advises = List.map (fun b -> P.Advise (P.advise_request ~benchmark:b ())) suite in
  let warm kind payloads = List.map (fun payload -> { due = nan; payload; kind }) payloads in
  let warmup = warm "sim" (shuffle rng head) @ warm "mp" (shuffle rng mps) @ warm "advise" (shuffle rng advises) in
  (* Grids pair each program with the next one in the suite. *)
  let grids =
    List.mapi
      (fun i b ->
        let next = List.nth suite ((i + 1) mod List.length suite) in
        P.Grid (P.grid_request ~benchmarks:[ b; next ] ~schemes:[ Config.Baseline; wp 16 ] ()))
      suite
  in
  let share kind total payloads =
    List.map (fun p -> ((p, kind), total /. float_of_int (List.length payloads))) payloads
  in
  let rank_weights = List.mapi (fun i _ -> 1.0 /. sqrt (float_of_int (i + 1))) head in
  let rank_total = List.fold_left ( +. ) 0.0 rank_weights in
  let mix =
    List.map2 (fun p w -> ((p, "sim"), 0.80 *. w /. rank_total)) head rank_weights
    @ share "mp" 0.07 mps @ share "advise" 0.09 advises @ share "grid" 0.04 grids
  in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let phase ~paced ~n cold =
    let cold = Array.of_list (shuffle rng cold) in
    let k = Array.length cold in
    (* Request [i] is cold slot [j] when it is the first index at or
       past j * n / k. *)
    let is_cold i = i * k mod n < k && i * k / n < k in
    let colds = List.length (List.filter is_cold (List.init n Fun.id)) in
    let hits = Array.of_list (shuffle rng (apportion (n - colds) mix)) in
    let next = ref 0 in
    List.init n (fun i ->
        let payload, kind =
          if is_cold i then (cold.(i * k / n), "sim")
          else begin
            incr next;
            hits.(!next - 1)
          end
        in
        { due = (if paced then float_of_int i /. rate else nan); payload; kind })
  in
  let open_loop = phase ~paced:true ~n (List.filteri (fun i _ -> i mod 4 = 0) tail) in
  let closed_segments = List.init 3 (fun _ -> phase ~paced:false ~n []) in
  (warmup, open_loop, closed_segments)

(* ------------------------------------------------------------------ *)
(* Driving it.                                                          *)

type outcome = {
  req : req;
  mutable sent : float;  (** absolute send time *)
  mutable done_at : float;  (** absolute completion time; nan = unanswered *)
  mutable source : string;
  mutable replies : P.reply list;  (** newest first *)
  mutable error : string option;
}

let new_outcome req = { req; sent = nan; done_at = nan; source = "-"; replies = []; error = None }
let is_final = function P.Grid_cell_reply _ -> false | _ -> true

let source_of = function
  | P.Sim_reply r -> P.source_name r.source
  | P.Mp_reply r -> P.source_name r.mpr_source
  | P.Advise_reply r -> P.source_name r.adr_source
  | _ -> "-"

(* Record [reply] on [o]; an error reply, for the whole request or for
   one grid cell, fails it. *)
let note o reply =
  o.replies <- reply :: o.replies;
  if o.error = None then
    match reply with
    | P.Error_reply msg -> o.error <- Some msg
    | P.Grid_cell_reply { gc_outcome = Error msg; _ } -> o.error <- Some ("grid cell: " ^ msg)
    | _ -> ()

(* The warm-up: one request at a time on a connection of its own, so a
   computed reply's latency is the service time alone. *)
let warm_up d reqs ~parent =
  match Client.connect d.endpoint with
  | Error m -> failwith m
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.map
            (fun req ->
              let o = new_outcome req in
              o.sent <- now ();
              (match Client.rpc c req.payload with
              | Ok reply ->
                  o.done_at <- now ();
                  note o reply;
                  o.source <- source_of reply;
                  Span.add ~parent ~tag:(req.kind ^ " warm-up " ^ o.source) ~start:o.sent
                    ~stop:o.done_at ("serve." ^ req.kind)
              | Error m -> o.error <- Some m);
              o)
            reqs)

(* One connection of a timed phase: its requests in send order (ids are
   allocated 1, 2, ... per connection in send order) and how many of
   them are sent but unanswered. *)
type conn = {
  client : Client.t;
  mine : outcome array;
  lock : Mutex.t;
  room : Condition.t;
  mutable inflight : int;
  mutable ended : bool;  (** the reader stopped *)
}

let reader cn ~parent =
  let remaining = ref (Array.length cn.mine) in
  let lost = ref None in
  while !remaining > 0 do
    match Client.recv cn.client with
    | Error msg ->
        lost := Some msg;
        remaining := 0
    | Ok { P.id; reply } when id >= 1 && id <= Array.length cn.mine ->
        let o = cn.mine.(id - 1) in
        note o reply;
        if is_final reply then begin
          o.done_at <- now ();
          o.source <- source_of reply;
          decr remaining;
          Span.add ~parent ~tag:(Printf.sprintf "%s #%d %s" o.req.kind id o.source)
            ~start:o.sent ~stop:o.done_at ("serve." ^ o.req.kind);
          Mutex.lock cn.lock;
          cn.inflight <- cn.inflight - 1;
          Condition.signal cn.room;
          Mutex.unlock cn.lock
        end
    | Ok _ -> ()
  done;
  Mutex.lock cn.lock;
  cn.ended <- true;
  (* On a lost connection nothing still unanswered will be answered. *)
  Option.iter
    (fun msg ->
      Array.iter
        (fun o ->
          if Float.is_nan o.done_at && o.error = None then o.error <- Some msg)
        cn.mine)
    !lost;
  Condition.broadcast cn.room;
  Mutex.unlock cn.lock

(* Send [cn]'s requests: at their due time after [t0] when [paced],
   otherwise whenever fewer than [window] are in flight. *)
let sender cn ~paced ~t0 =
  Array.iter
    (fun o ->
      Mutex.lock cn.lock;
      while (not paced) && cn.inflight >= window && not cn.ended do
        Condition.wait cn.room cn.lock
      done;
      let ended = cn.ended in
      if not ended then cn.inflight <- cn.inflight + 1;
      Mutex.unlock cn.lock;
      if not ended then begin
        (if paced then
           let wait = t0 +. o.req.due -. now () in
           if wait > 0.0 then Thread.delay wait);
        o.sent <- now ();
        try ignore (Client.send cn.client o.req.payload) with Sys_error m -> o.error <- Some m
      end)
    cn.mine

(* One timed phase over [connections] fresh connections.  Returns its
   start, its outcomes and whether every request was answered within
   [timeout]; if not, the daemon is killed, which ends every reader and
   sender. *)
let drive d reqs ~paced ~timeout ~parent =
  let outcomes = Array.of_list (List.map new_outcome reqs) in
  let conns =
    Array.init connections (fun c ->
        let client = match Client.connect d.endpoint with Ok cl -> cl | Error m -> failwith m in
        {
          client;
          mine = Array.of_list (List.filteri (fun i _ -> i mod connections = c) (Array.to_list outcomes));
          lock = Mutex.create ();
          room = Condition.create ();
          inflight = 0;
          ended = false;
        })
  in
  let readers = Array.map (fun cn -> Thread.create (fun () -> reader cn ~parent) ()) conns in
  let t0 = now () +. if paced then 0.01 else 0.0 in
  let senders = Array.map (fun cn -> Thread.create (fun () -> sender cn ~paced ~t0) ()) conns in
  let pending () = Array.exists (fun o -> Float.is_nan o.done_at && o.error = None) outcomes in
  let deadline = now () +. timeout in
  while now () < deadline && pending () do
    Thread.delay 0.005
  done;
  let complete = Array.for_all (fun o -> not (Float.is_nan o.done_at)) outcomes in
  if not complete then dispose d;
  Array.iter Thread.join senders;
  Array.iter Thread.join readers;
  Array.iter (fun cn -> Client.close cn.client) conns;
  (t0, Array.to_list outcomes, complete)

(* ------------------------------------------------------------------ *)
(* Checking replies against the library.  The library's result for
   every request the schedule can make is recorded in digests.txt
   (computed by the reference loop), keyed by the request; a reply must
   match it in every field the request determines - all but the content
   address, the source and the marshalled-form digest. *)

let reply_id payload (reply : P.reply) =
  let sim b scheme size_kb ways =
    Result.to_option (P.config_of_geometry ~scheme ~size_kb ~ways ~line_bytes:32)
    |> Option.map (fun c -> "reply:sim:" ^ Cells.cell_id b c)
  in
  match (payload, reply) with
  | P.Sim r, _ -> sim r.benchmark r.scheme r.size_kb r.ways
  | P.Grid _, P.Grid_cell_reply c -> sim c.gc_benchmark c.gc_scheme c.gc_size_kb c.gc_ways
  | P.Mp m, _ ->
      Result.to_option (P.config_of_mp m)
      |> Option.map (fun c -> Printf.sprintf "reply:mp:%s:q%d:%s" m.mp_mix m.mp_quantum (config_label c))
  | P.Advise a, _ -> Some ("reply:advise:" ^ a.ad_benchmark)
  | _ -> None

let sim_fields (r : P.sim_result) =
  Printf.sprintf "sim %d %d %d %d %d %h %h" r.cycles r.retired r.fetches r.icache_hits
    r.icache_misses r.icache_energy_pj r.total_energy_pj

let reply_fingerprint (reply : P.reply) =
  let fields =
    match reply with
    | P.Sim_reply r -> Some (sim_fields r)
    | P.Grid_cell_reply { gc_outcome = Ok r; _ } -> Some (sim_fields r)
    | P.Mp_reply r ->
        Some
          (Printf.sprintf "mp %d %d %d %d %d %h %h" r.mpr_cycles r.mpr_retired r.mpr_processes
             r.mpr_switches r.mpr_kernel_runs r.mpr_icache_energy_pj r.mpr_total_energy_pj)
    | P.Advise_reply r ->
        Some
          (Printf.sprintf "advise %d %d %d %d %d %d %d %d %h %h %h" r.adr_static_min_ways
             r.adr_min_area_bytes r.adr_regions r.adr_findings r.adr_errors r.adr_warnings
             r.adr_schedule_points r.adr_conflict_misses r.adr_env_lo_pj r.adr_env_hi_pj
             r.adr_predicted_delta_pj)
    | _ -> None
  in
  Option.map (fun f -> Digest.to_hex (Digest.string f)) fields

(* An answered grid must stream every cell of its cross product, then a
   summary that counts them all and no error. *)
let grid_problem (g : P.grid_request) replies =
  let expected = List.length (P.grid_cells g) in
  let streamed = List.length (List.filter (function P.Grid_cell_reply _ -> true | _ -> false) replies) in
  match List.find_map (function P.Grid_done s -> Some s | _ -> None) replies with
  | None -> Some "grid ended without a summary"
  | Some s when s.gs_errors > 0 -> Some (Printf.sprintf "grid summary counts %d errors" s.gs_errors)
  | Some s when s.gs_cells <> expected || streamed <> expected ->
      Some
        (Printf.sprintf "grid of %d cells: the summary counts %d, %d streamed" expected s.gs_cells
           streamed)
  | Some _ -> None

(* Marks a request failed when one of its replies differs, or when an
   answered grid is incomplete. *)
let check_replies digests outcomes =
  List.iter
    (fun o ->
      let wrong reply =
        match (reply_id o.req.payload reply, reply_fingerprint reply) with
        | Some id, Some fp when Hashtbl.find_opt digests id <> Some fp ->
            Some (id ^ ": reply differs from the library")
        | None, Some _ -> Some "reply to an unknown request"
        | _ -> None
      in
      let grid =
        match o.req.payload with
        | P.Grid g when not (Float.is_nan o.done_at) -> grid_problem g o.replies
        | _ -> None
      in
      if o.error = None then
        o.error <- (match List.find_map wrong o.replies with Some _ as w -> w | None -> grid))
    outcomes

(* ------------------------------------------------------------------ *)

let retired_of o =
  List.fold_left
    (fun acc -> function
      | P.Sim_reply r -> acc + r.retired
      | P.Mp_reply r -> acc + r.mpr_retired
      | _ -> acc)
    0 o.replies

let run (ctx : Cells.ctx) ~cli ~out =
  (* A daemon that dies mid-run must surface as failed writes, not kill
     the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  if ctx.trace then Cells.traced_setup ctx (List.map Mibench.find Mibench.names);
  let warm_reqs, open_reqs, closed_reqs = schedule ~seed:ctx.seed ~seconds:ctx.seconds in
  (* Set-up samples: all but the last daemon are stopped right away. *)
  let rec setups n acc =
    let d, dt = spawn ~cli ~out in
    if n = 1 then (d, List.rev (dt :: acc))
    else begin
      stop d;
      setups (n - 1) (dt :: acc)
    end
  in
  let (d, setup_samples), setup_wall = timed (fun () -> setups spawns []) in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () -> if not !finished then dispose d)
    (fun () ->
      Span.enabled := ctx.trace;
      let warm, warm_wall =
        timed (fun () ->
            Span.with_span "warm_up" (fun () -> warm_up d warm_reqs ~parent:(Span.current ())))
      in
      let t_open, open_loop, open_ok =
        Span.with_span "loadgen.open" (fun () ->
            drive d open_reqs ~paced:true ~timeout:(ctx.seconds +. 30.0) ~parent:(Span.current ()))
      in
      (* The daemon's peak memory while it serves the offered load.  At
         saturation it depends on when the GC runs: 266-339 MB over
         five closed loops, against 266-291 MB after the open loop. *)
      let rss = vm_hwm_mb (string_of_int d.pid) in
      (* Each closed-loop segment runs on fresh connections; a killed
         daemon leaves the segments after it unsent. *)
      let segments, closed_ok =
        List.fold_left
          (fun (acc, ok) reqs ->
            if not ok then ((now (), List.map new_outcome reqs) :: acc, false)
            else
              let t0, os, ok =
                Span.with_span "loadgen.closed" (fun () ->
                    drive d reqs ~paced:false ~timeout:30.0 ~parent:(Span.current ()))
              in
              ((t0, os) :: acc, ok))
          ([], open_ok) closed_reqs
      in
      let segments = List.rev segments in
      let closed_loop = List.concat_map snd segments in
      Span.enabled := false;
      let stats =
        if not closed_ok then None
        else
          match Client.connect ~attempts:1 d.endpoint with
          | Ok c ->
              let s = Client.server_stats c in
              Client.close c;
              Result.to_option s
          | Error _ -> None
      in
      (* An incomplete phase has already killed the daemon. *)
      if closed_ok then stop d;
      finished := true;
      let everything = warm @ open_loop @ closed_loop in
      check_replies ctx.digests everything;
      List.iter
        (fun o ->
          ctx.attempted <- ctx.attempted + 1;
          match o.error with
          | Some m -> Cells.fail ctx "serve %s: %s" o.req.kind m
          | None -> if Float.is_nan o.done_at then Cells.fail ctx "serve %s: unanswered" o.req.kind)
        everything;
      let answered = List.filter (fun o -> not (Float.is_nan o.done_at)) in
      let last t0 os = List.fold_left (fun m o -> Float.max m o.done_at) t0 (answered os) in
      let segment_s = List.map (fun (t0, os) -> Float.max 1e-9 (last t0 os -. t0)) segments in
      Printf.eprintf "[serve_mix] set-up %.1fs, warm-up %.1fs, open loop %.1fs, closed loop %s s\n%!"
        setup_wall warm_wall (last t_open open_loop -. t_open)
        (String.concat " + " (List.map (Printf.sprintf "%.1f") segment_s));
      let lat = List.map (fun o -> (o.done_at -. (t_open +. o.req.due)) *. 1e3) (answered open_loop) in
      (* The daemon's compute rate: instructions simulated by computed
         Sim and Mp requests per second of their service time, in the
         warm-up (one request at a time) and the open loop (cold keys
         in spaced slots).  The closed loop's service times are mostly
         queueing. *)
      let computed =
        List.filter
          (fun o -> o.source = P.source_name P.Computed && (o.req.kind = "sim" || o.req.kind = "mp"))
          (answered (warm @ open_loop))
      in
      let compute_s = sum (List.map (fun o -> o.done_at -. o.sent) computed) in
      let computed_instrs = List.fold_left (fun a o -> a + retired_of o) 0 computed in
      (* Figure-4 pairs among the warm-up's replies: normalised energy and ED. *)
      let find b s =
        List.find_map
          (fun o ->
            match (o.req.payload, o.replies) with
            | P.Sim r, [ P.Sim_reply res ]
              when r.benchmark = b && r.scheme = s && (r.size_kb, r.ways) = (32, 32) ->
                Some res
            | _ -> None)
          warm
      in
      let pairs =
        List.filter_map
          (fun b ->
            match (find b Config.Baseline, find b (wp 16)) with
            | Some base, Some wp ->
                Some
                  ( Ed.normalised ~scheme:wp.icache_energy_pj ~baseline:base.icache_energy_pj,
                    Ed.normalised_ed ~scheme_energy_pj:wp.total_energy_pj ~scheme_cycles:wp.cycles
                      ~baseline_energy_pj:base.total_energy_pj ~baseline_cycles:base.cycles )
            | _ -> None)
          Mibench.names
      in
      let req_per_s =
        median
          (List.map2
             (fun (_, os) s -> float_of_int (List.length (answered os)) /. s)
             segments segment_s)
      in
      let set = Hashtbl.replace ctx.e2e in
      set "setup_s" (median setup_samples);
      set "run_s" (median segment_s);
      set "sim_mips" (float_of_int computed_instrs /. Float.max 1e-9 compute_s /. 1e6);
      set "peak_rss_mb" rss;
      set "norm_icache_energy" (mean (List.map fst pairs));
      set "norm_ed" (mean (List.map snd pairs));
      set "req_p50_ms" (quantile 0.5 lat);
      set "req_p99_ms" (quantile 0.99 lat);
      set "req_per_s" req_per_s;
      if ctx.trace then begin
        let layer = Hashtbl.replace ctx.layer in
        (* Service times of the warm-up and the open loop; the closed
           loop's are mostly queueing. *)
        let served = answered (warm @ open_loop) in
        let service o = (o.done_at -. o.sent) *. 1e3 in
        List.iter
          (fun kind ->
            List.iter
              (fun source ->
                let xs =
                  List.filter_map
                    (fun o -> if o.req.kind = kind && o.source = source then Some (service o) else None)
                    served
                in
                layer (Printf.sprintf "serve.%s.%s_p50_ms" kind source) (quantile 0.5 xs);
                layer (Printf.sprintf "serve.%s.%s_p99_ms" kind source) (quantile 0.99 xs))
              [ "computed"; "memory" ])
          [ "sim"; "mp"; "advise" ];
        layer "serve.grid.p50_ms"
          (quantile 0.5
             (List.filter_map (fun o -> if o.req.kind = "grid" then Some (service o) else None) served));
        let hits, total =
          List.fold_left
            (fun (h, t) o ->
              List.fold_left
                (fun (h, t) -> function
                  | P.Sim_reply { source; _ } | P.Grid_cell_reply { gc_outcome = Ok { source; _ }; _ } ->
                      ((if source = P.Memory || source = P.Disk then h + 1 else h), t + 1)
                  | _ -> (h, t))
                (h, t) o.replies)
            (0, 0) (answered open_loop)
        in
        layer "serve.hit_ratio" (float_of_int hits /. float_of_int (max 1 total));
        Option.iter
          (fun (s : P.server_stats) ->
            layer "serve.coalesced" (float_of_int s.coalesced);
            layer "serve.errors" (float_of_int s.errors);
            layer "serve.store_entries" (float_of_int s.store_entries))
          stats;
        layer "loadgen.late_p99_ms"
          (quantile 0.99 (List.map (fun o -> (o.sent -. (t_open +. o.req.due)) *. 1e3) open_loop));
        layer "loadgen.offered_frac" (rate /. req_per_s)
      end)
