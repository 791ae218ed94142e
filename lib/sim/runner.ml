type prepared = {
  program : Wp_workloads.Codegen.t;
  profile_small : Wp_cfg.Profile.t;
  trace_large : Wp_workloads.Tracer.trace;
  original_layout : Wp_layout.Binary_layout.t;
  placed_layout : Wp_layout.Binary_layout.t;
  compiled_original : Compiled_trace.t;
  compiled_placed : Compiled_trace.t;
}

let prepare spec =
  let program = Wp_workloads.Codegen.generate spec in
  let graph = program.Wp_workloads.Codegen.graph in
  let profile_small = Wp_workloads.Tracer.profile program Wp_workloads.Tracer.Small in
  let trace_large = Wp_workloads.Tracer.trace program Wp_workloads.Tracer.Large in
  let base = Simulator.code_base in
  let original_layout =
    Wp_layout.Binary_layout.of_order graph ~base (Wp_layout.Placer.original graph)
  in
  let placed_layout =
    Wp_layout.Binary_layout.of_order graph ~base
      (Wp_layout.Placer.place graph profile_small)
  in
  {
    program;
    profile_small;
    trace_large;
    original_layout;
    placed_layout;
    compiled_original = Compiled_trace.make ~program ~layout:original_layout;
    compiled_placed = Compiled_trace.make ~program ~layout:placed_layout;
  }

let layout_for prepared (config : Config.t) =
  match config.scheme with
  | Config.Way_placement _ -> prepared.placed_layout
  | Config.Baseline | Config.Way_memoization | Config.Way_prediction
  | Config.Filter_cache _ ->
      prepared.original_layout

let compiled_for prepared (config : Config.t) =
  match config.scheme with
  | Config.Way_placement _ -> prepared.compiled_placed
  | Config.Baseline | Config.Way_memoization | Config.Way_prediction
  | Config.Filter_cache _ ->
      prepared.compiled_original

let run_scheme ?probe ?fastforward ?ff_report ?snapshot_cache prepared config =
  Simulator.run_compiled ?probe ?fastforward ?ff_report ?snapshot_cache
    ~config ~trace:prepared.trace_large
    (compiled_for prepared config)

let run_timeline ?(schedule = []) ?window_cycles prepared config =
  let sampler = Wp_obs.Sampler.create ?window_cycles () in
  let stats =
    Simulator.run_compiled ~sampler ~schedule ~config
      ~trace:prepared.trace_large
      (compiled_for prepared config)
  in
  (stats, Wp_obs.Sampler.finish sampler)

type comparison = {
  baseline : Stats.t;
  scheme : Stats.t;
  norm_icache_energy : float;
  norm_ed : float;
  norm_cycles : float;
}

let normalise ~baseline scheme =
  {
    baseline;
    scheme;
    norm_icache_energy =
      Wp_energy.Ed.normalised
        ~scheme:(Stats.icache_energy_pj scheme)
        ~baseline:(Stats.icache_energy_pj baseline);
    norm_ed =
      Wp_energy.Ed.normalised_ed
        ~scheme_energy_pj:(Stats.total_energy_pj scheme)
        ~scheme_cycles:scheme.Stats.cycles
        ~baseline_energy_pj:(Stats.total_energy_pj baseline)
        ~baseline_cycles:baseline.Stats.cycles;
    norm_cycles =
      Wp_energy.Ed.normalised
        ~scheme:(float_of_int scheme.Stats.cycles)
        ~baseline:(float_of_int baseline.Stats.cycles);
  }

let compare_to_baseline prepared config =
  let baseline = run_scheme prepared (Config.with_scheme config Config.Baseline) in
  normalise ~baseline (run_scheme prepared config)

let arithmetic_mean = function
  | [] -> invalid_arg "Runner.arithmetic_mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geometric_mean = function
  | [] -> invalid_arg "Runner.geometric_mean: empty list"
  | xs ->
      let log_sum =
        List.fold_left
          (fun acc x ->
            if x <= 0.0 then invalid_arg "Runner.geometric_mean: non-positive"
            else acc +. log x)
          0.0 xs
      in
      exp (log_sum /. float_of_int (List.length xs))
