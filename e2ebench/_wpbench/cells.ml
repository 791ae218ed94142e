(* The in-process workloads: figure_grid, loop_ff and observed.  Each
   run is a sequence of rounds; a round starts from a fresh sweep engine
   and snapshot cache, prepares every program (the set-up sample) and
   then runs the workload's cells (the timed sample). *)

open Util
module Sweep = Wayplace.Sim.Sweep
module Pool = Sweep.Pool
module Simulator = Wayplace.Sim.Simulator
module Steady_state = Wayplace.Sim.Steady_state
module Snapshot_cache = Wayplace.Sim.Snapshot_cache
module Advisor = Wayplace.Advise.Advisor
module Tracer = Wayplace.Workloads.Tracer
module Codegen = Wayplace.Workloads.Codegen

(* One worker domain.  On the 2-vCPU host of record, two domains made
   the same figure run vary from 9.7 s to 16.5 s between consecutive
   runs; with one, ten consecutive loop_ff runs stayed within 9.4-11.3 s. *)
let workers = 1

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  digests : (string, string) Hashtbl.t;
  e2e : (string, float) Hashtbl.t;
  layer : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let fail ctx fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.failed <- ctx.failed + 1;
      Printf.eprintf "[wpbench] FAILED %s\n%!" msg)
    fmt

(* One timed cell: its id, scheme, host seconds and statistics. *)
type cell = { id : string; scheme : string; secs : float; stats : Stats.t }

let instrs cells = List.fold_left (fun a c -> a + c.stats.Stats.retired_instrs) 0 cells

type round = {
  setup : float;
  run : float;
  cells : cell list;
  traced : bool;
}

(* Set-up samples taken before the rounds, on top of each round's own. *)
let setup_reps = 11

(* A run makes as many rounds as nominally fit in [ctx.seconds] (the
   workload's [nominal] round length on the host of record), at least
   one, and two when tracing, which alternates untraced and traced
   rounds so the overhead is measured in the same run.  The count
   depends on the budget, not on the clock: a run that happened to fit
   one more round would be warmer than its neighbours.  Returns every
   set-up sample and the rounds. *)
let rounds ctx ~nominal ~setup (round : traced:bool -> round) =
  let extra = List.init setup_reps (fun _ -> snd (timed setup)) in
  let n = max (if ctx.trace then 2 else 1) (int_of_float (ctx.seconds /. nominal)) in
  let rs = ref [] in
  for i = 0 to n - 1 do
    let traced = ctx.trace && i mod 2 = 1 in
    Span.enabled := traced;
    let r = round ~traced in
    Span.enabled := false;
    Printf.eprintf "[round %d%s] set-up %.3fs, run %.3fs\n%!" (i + 1)
      (if traced then ", traced" else "") r.setup r.run;
    rs := r :: !rs
  done;
  let rs = List.rev !rs in
  (extra @ List.map (fun r -> r.setup) rs, rs)

(* ------------------------------------------------------------------ *)
(* Inputs.                                                              *)

let suite = Mibench.names

(* The fig4, fig5, fig6 and ext-comparators grids, deduplicated.  The
   paper geometry is spelled [Config.xscale] throughout so that every
   32KB/32-way cell of the four figures is one job. *)
let cfg (size, ways) scheme = if (size, ways) = (32, 32) then Config.xscale scheme else at size ways scheme

let figure_grid_jobs () =
  let paper =
    List.map Config.xscale
      (Config.Baseline :: Config.Way_memoization :: Config.Way_prediction
      :: Config.Filter_cache { l0_bytes = 512 }
      :: List.map wp [ 16; 8; 4; 2; 1 ])
  in
  let fig6 =
    List.concat_map
      (fun g -> List.map (cfg g) [ Config.Baseline; Config.Way_memoization; wp 16; wp 8 ])
      fig6_geometries
  in
  List.concat_map
    (fun config -> List.map (fun benchmark -> { Sweep.benchmark; config }) suite)
    (paper @ fig6)
  |> Sweep.dedup

let loop_configs () = List.concat_map (fun g -> List.map (cfg g) five_schemes) fig6_geometries
let cell_id name config = name ^ ":" ^ config_label config

(* ------------------------------------------------------------------ *)
(* Set-up, plain and traced.                                            *)

let prepare_all specs =
  Pool.map ~workers
    (fun (spec : Wayplace.Workloads.Spec.t) ->
      Span.with_span ~tag:spec.name "runner.prepare" (fun () -> Runner.prepare spec))
    specs

(* The traced set-up pass: the real [Runner.prepare] per program, then
   the same public stage functions it calls, each in its own span. *)
let traced_setup ctx specs =
  Span.enabled := true;
  let totals = Hashtbl.create 8 in
  let stage ?tag name f =
    let r, dt = timed (fun () -> Span.with_span ?tag name f) in
    Hashtbl.replace totals name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt totals name));
    r
  in
  List.iter
    (fun (spec : Wayplace.Workloads.Spec.t) ->
      ignore (stage ~tag:spec.name "runner.prepare" (fun () -> Runner.prepare spec));
      Span.with_span ~tag:spec.name "setup.stages" (fun () ->
          let program = stage "workloads.generate" (fun () -> Codegen.generate spec) in
          let graph = program.Codegen.graph in
          let profile = stage "workloads.profile" (fun () -> Tracer.profile program Tracer.Small) in
          ignore (stage "workloads.trace" (fun () -> Tracer.trace program Tracer.Large));
          let base = Simulator.code_base in
          let module L = Wayplace.Layout in
          let original, placed =
            stage "layout.place" (fun () ->
                ( L.Binary_layout.of_order graph ~base (L.Placer.original graph),
                  L.Binary_layout.of_order graph ~base (L.Placer.place graph profile) ))
          in
          stage "compiled_trace.make" (fun () ->
              ignore (Wayplace.Sim.Compiled_trace.make ~program ~layout:original);
              ignore (Wayplace.Sim.Compiled_trace.make ~program ~layout:placed))))
    specs;
  Span.enabled := false;
  List.iter
    (fun name ->
      Hashtbl.replace ctx.layer (name ^ "_s")
        (Option.value ~default:0.0 (Hashtbl.find_opt totals name)))
    [ "runner.prepare"; "workloads.generate"; "workloads.profile"; "workloads.trace";
      "layout.place"; "compiled_trace.make" ]

(* ------------------------------------------------------------------ *)
(* Metrics shared by the in-process workloads.                          *)

let record_e2e ctx ~norm (setups, rounds) =
  let set = Hashtbl.replace ctx.e2e in
  let runs = List.map (fun r -> r.run) rounds in
  let lat = List.concat_map (fun r -> List.map (fun c -> c.secs *. 1e3) r.cells) rounds in
  set "setup_s" (median setups);
  set "run_s" (median runs);
  set "sim_mips" (median (List.map (fun r -> float_of_int (instrs r.cells) /. r.run /. 1e6) rounds));
  set "req_p50_ms" (quantile 0.5 lat);
  set "req_p99_ms" (quantile 0.99 lat);
  set "req_per_s"
    (median (List.map (fun r -> float_of_int (List.length r.cells) /. r.run) rounds));
  set "peak_rss_mb" (vm_hwm_mb "self");
  let e, ed = norm in
  set "norm_icache_energy" e;
  set "norm_ed" ed

(* Per-layer metrics of the traced rounds: per-scheme replay cost, the
   pool's occupancy and job latency, and the tracing overhead. *)
let record_layers ctx (_, rounds) =
  let set = Hashtbl.replace ctx.layer in
  let traced = List.filter (fun r -> r.traced) rounds in
  let plain = List.filter (fun r -> not r.traced) rounds in
  let cells = List.concat_map (fun r -> r.cells) traced in
  List.iter
    (fun scheme ->
      let mine = List.filter (fun c -> c.scheme = scheme) cells in
      let secs = sum (List.map (fun c -> c.secs) mine) in
      let n = instrs mine in
      if n > 0 then set ("simulator." ^ scheme ^ ".ns_per_instr") (secs *. 1e9 /. float_of_int n))
    (List.map scheme_short five_schemes);
  let per_round f = median (List.map f traced) in
  set "simulator.instrs" (per_round (fun r -> float_of_int (instrs r.cells)));
  set "sweep.busy_frac"
    (per_round (fun r ->
         sum (List.map (fun c -> c.secs) r.cells) /. (float_of_int workers *. r.run)));
  let jobs = List.map (fun c -> c.secs *. 1e3) cells in
  set "sweep.job_p50_ms" (quantile 0.5 jobs);
  set "sweep.job_p99_ms" (quantile 0.99 jobs);
  set "trace.overhead_s" (per_round (fun r -> r.run) -. median (List.map (fun r -> r.run) plain))

let check_digest ctx id stats =
  ctx.attempted <- ctx.attempted + 1;
  match Hashtbl.find_opt ctx.digests id with
  | None -> fail ctx "%s: no recorded digest" id
  | Some d -> if d <> stats_digest stats then fail ctx "%s: digest mismatch" id

(* [instrs]: the instructions the reported runs retired. *)
let steady_state_layers ctx ~instrs (reports : Steady_state.report list) =
  let tot f = List.fold_left (fun a r -> a + f r) 0 reports in
  let regions = tot (fun r -> r.Steady_state.regions) in
  let frac n = if regions = 0 then 0.0 else float_of_int n /. float_of_int regions in
  Hashtbl.replace ctx.layer "steady_state.skipped_frac"
    (float_of_int (tot (fun r -> r.skipped_instrs)) /. float_of_int (max 1 instrs));
  Hashtbl.replace ctx.layer "steady_state.converged_frac" (frac (tot (fun r -> r.converged)));
  Hashtbl.replace ctx.layer "steady_state.cache_hit_frac" (frac (tot (fun r -> r.cache_hits)));
  Hashtbl.replace ctx.layer "steady_state.budget_exhausted"
    (float_of_int (tot (fun r -> r.budget_exhausted)))

(* ------------------------------------------------------------------ *)
(* figure_grid: the researchers' figure run, through Sweep.run_batch.   *)

let figure_grid ctx =
  let rng = Random.State.make [| ctx.seed; 1 |] in
  let jobs = figure_grid_jobs () in
  let job_id (j : Sweep.job) = cell_id j.benchmark j.config in
  if ctx.trace then traced_setup ctx (List.map Mibench.find suite);
  let last_engine = ref None in
  let order = shuffle rng jobs in
  let prepare engine = ignore (Pool.map ~workers (Sweep.prepared engine) suite) in
  let round ~traced =
    let batch = ref 0 in
    let log = ref [] in
    let progress (j : Sweep.job) ~seconds ~completed:_ ~total:_ =
      let stop = now () in
      log := (j, seconds) :: !log;
      Span.add ~parent:!batch ~tag:(job_id j) ~start:(stop -. seconds) ~stop "sweep.job"
    in
    let engine = Sweep.create ~workers ~progress () in
    let (), setup = timed (fun () -> Span.with_span "setup" (fun () -> prepare engine)) in
    let (_ : Stats.t list), run =
      timed (fun () ->
          Span.with_span "sweep.run_batch" (fun () ->
              batch := Span.current ();
              Sweep.run_batch engine order))
    in
    last_engine := Some engine;
    let cells =
      List.map
        (fun ((j : Sweep.job), secs) ->
          { id = job_id j; scheme = scheme_short j.config.scheme; secs; stats = Sweep.stats engine j })
        !log
    in
    { setup; run; cells; traced }
  in
  let ((_, rs) as measured) =
    rounds ctx ~nominal:20.0 ~setup:(fun () -> prepare (Sweep.create ~workers ())) round
  in
  List.iter (fun r -> List.iter (fun c -> check_digest ctx c.id c.stats) r.cells) rs;
  let engine = Option.get !last_engine in
  let pairs =
    List.map
      (fun b ->
        let get s = Sweep.stats engine { Sweep.benchmark = b; config = Config.xscale s } in
        norm_pair ~baseline:(get Config.Baseline) ~scheme:(get (wp 16)))
      suite
  in
  record_e2e ctx ~norm:(mean (List.map fst pairs), mean (List.map snd pairs)) measured;
  if ctx.trace then begin
    record_layers ctx measured;
    (* The steady-state engine's view of the suite, read from its report
       on one cell per program: the pre-scan should find nothing here. *)
    let runs =
      List.map
        (fun b ->
          let report = Steady_state.create_report () in
          let stats =
            Runner.run_scheme ~fastforward:true ~ff_report:report (Sweep.prepared engine b)
              (Config.xscale Config.Baseline)
          in
          (report, stats.Stats.retired_instrs))
        suite
    in
    steady_state_layers ctx
      ~instrs:(List.fold_left (fun a (_, n) -> a + n) 0 runs)
      (List.map fst runs)
  end

(* ------------------------------------------------------------------ *)
(* loop_ff: the loop variants under fast-forward.                       *)

let loop_ff ctx =
  let rng = Random.State.make [| ctx.seed; 2 |] in
  let specs = Mibench.loops in
  let configs = loop_configs () in
  if ctx.trace then traced_setup ctx specs;
  let reports = ref [] in
  let last = ref [] in
  let order = shuffle rng (List.concat_map (fun b -> List.map (fun c -> (b, c)) configs) Mibench.loop_names) in
  let round ~traced =
    let preps, setup = timed (fun () -> Span.with_span "setup" (fun () -> prepare_all specs)) in
    let preps = List.combine Mibench.loop_names preps in
    let cells = List.map (fun (name, config) -> (name, List.assoc name preps, config)) order in
    let cache = Snapshot_cache.create () in
    let results, run =
      timed (fun () ->
          Span.with_span "pool.map" (fun () ->
              let parent = Span.current () in
              Pool.map ~workers
                (fun (name, prep, config) ->
                  let id = cell_id name config in
                  let report = Steady_state.create_report () in
                  let stats, secs =
                    timed (fun () ->
                        Span.with_span ~parent ~tag:id "simulator.run_scheme" (fun () ->
                            Runner.run_scheme ~fastforward:true ~ff_report:report
                              ~snapshot_cache:cache prep config))
                  in
                  ({ id; scheme = scheme_short config.Config.scheme; secs; stats }, report))
                cells))
    in
    let cells = List.map fst results in
    if traced then reports := List.map snd results;
    last := cells;
    { setup; run; cells; traced }
  in
  let ((_, rs) as measured) =
    rounds ctx ~nominal:7.5 ~setup:(fun () -> ignore (prepare_all specs)) round
  in
  List.iter (fun r -> List.iter (fun c -> check_digest ctx c.id c.stats) r.cells) rs;
  let find name config =
    let id = cell_id name config in
    (List.find (fun c -> c.id = id) !last).stats
  in
  let pairs =
    List.map
      (fun (spec : Wayplace.Workloads.Spec.t) ->
        norm_pair
          ~baseline:(find spec.name (Config.xscale Config.Baseline))
          ~scheme:(find spec.name (Config.xscale (wp 16))))
      specs
  in
  record_e2e ctx ~norm:(mean (List.map fst pairs), mean (List.map snd pairs)) measured;
  if ctx.trace then begin
    record_layers ctx measured;
    let traced = List.find (fun r -> r.traced) rs in
    steady_state_layers ctx ~instrs:(instrs traced.cells) !reports
  end

(* ------------------------------------------------------------------ *)
(* observed: the advisor and both probed timelines, per program.        *)

let observed_programs = Mibench.all @ Mibench.loops

type obs = {
  name : string;
  report : Advisor.t;
  advise_s : float;
  resized : Stats.t;
  resized_s : float;
  plain : Stats.t;
  plain_s : float;
  windows : int;
}

let wp16 = Config.xscale (wp 16)
let base = Config.xscale Config.Baseline

let observe ~parent name (prep : Runner.prepared) =
  let report, advise_s =
    timed (fun () ->
        Span.with_span ~parent ~tag:name "advise.analyze" (fun () ->
            Advisor.analyze ~benchmark:name ~graph:prep.program.Codegen.graph
              ~profile:prep.profile_small ~trace:prep.trace_large ~layout:prep.placed_layout
              ~geometry:wp16.icache ~page_bytes:1024 ~area_bytes:(kb 16) ~energy:base.energy ()))
  in
  let schedule = report.Advisor.schedule in
  let (resized, wr), resized_s =
    timed (fun () ->
        Span.with_span ~parent ~tag:name "obs.resized" (fun () ->
            Runner.run_timeline ~schedule prep wp16))
  in
  let (plain, wp), plain_s =
    timed (fun () ->
        Span.with_span ~parent ~tag:name "obs.timeline" (fun () -> Runner.run_timeline prep base))
  in
  {
    name; report; advise_s; resized; resized_s; plain; plain_s;
    windows = List.length wr + List.length wp;
  }

let observed ctx =
  let rng = Random.State.make [| ctx.seed; 3 |] in
  let specs = observed_programs in
  if ctx.trace then traced_setup ctx specs;
  let every = ref [] and traced_obs = ref [] in
  let names = List.map (fun (s : Wayplace.Workloads.Spec.t) -> s.name) specs in
  let order = shuffle rng names in
  let round ~traced =
    let preps, setup = timed (fun () -> Span.with_span "setup" (fun () -> prepare_all specs)) in
    let preps = List.combine names preps in
    let items = List.map (fun name -> (name, List.assoc name preps)) order in
    let results, run =
      timed (fun () ->
          Span.with_span "pool.map" (fun () ->
              let parent = Span.current () in
              Pool.map ~workers (fun (name, prep) -> observe ~parent name prep) items))
    in
    every := results :: !every;
    if traced then traced_obs := results;
    (* A program is one request; its instructions are both timelines'. *)
    let cells =
      List.map
        (fun o ->
          let stats = Stats.create () in
          stats.Stats.retired_instrs <- o.resized.retired_instrs + o.plain.retired_instrs;
          { id = o.name; scheme = ""; secs = o.advise_s +. o.resized_s +. o.plain_s; stats })
        results
    in
    { setup; run; cells; traced }
  in
  let measured = rounds ctx ~nominal:7.5 ~setup:(fun () -> ignore (prepare_all specs)) round in
  List.iter
    (List.iter (fun o ->
         check_digest ctx (o.name ^ ":resized:" ^ config_label wp16) o.resized;
         check_digest ctx (o.name ^ ":plain:" ^ config_label base) o.plain))
    !every;
  let results = List.hd !every in
  let pairs = List.map (fun o -> norm_pair ~baseline:o.plain ~scheme:o.resized) results in
  record_e2e ctx ~norm:(mean (List.map fst pairs), mean (List.map snd pairs)) measured;
  if ctx.trace then begin
    record_layers ctx measured;
    let obs = !traced_obs in
    let set = Hashtbl.replace ctx.layer in
    let ns secs stats =
      sum (List.map secs obs) *. 1e9
      /. float_of_int (List.fold_left (fun a o -> a + (stats o).Stats.retired_instrs) 0 obs)
    in
    set "obs.timeline.ns_per_instr" (ns (fun o -> o.plain_s) (fun o -> o.plain));
    set "obs.resized.ns_per_instr" (ns (fun o -> o.resized_s) (fun o -> o.resized));
    set "obs.windows" (float_of_int (List.fold_left (fun a o -> a + o.windows) 0 obs));
    set "advise.analyze_ms" (median (List.map (fun o -> o.advise_s *. 1e3) obs));
    set "advise.analyze_s" (sum (List.map (fun o -> o.advise_s) obs));
    set "advise.schedule_points"
      (float_of_int (List.fold_left (fun a o -> a + List.length o.report.schedule) 0 obs))
  end
