(** Experiment orchestration: the paper's methodology in one place.

    For each benchmark: generate the program, profile it on the
    {e small} input, build the way-placement layout from that profile,
    then evaluate every scheme on the {e large} input (Section 5).
    The baseline and way-memoization run the original binary layout;
    way-placement runs the reordered one. *)

type prepared = {
  program : Wp_workloads.Codegen.t;
  profile_small : Wp_cfg.Profile.t;
  trace_large : Wp_workloads.Tracer.trace;
  original_layout : Wp_layout.Binary_layout.t;
  placed_layout : Wp_layout.Binary_layout.t;
  compiled_original : Compiled_trace.t;
      (** precompiled replay tables for [original_layout] *)
  compiled_placed : Compiled_trace.t;
      (** precompiled replay tables for [placed_layout] *)
}

val prepare : Wp_workloads.Spec.t -> prepared
(** Everything scheme-independent, computed once per benchmark —
    including the compiled traces, so repeated runs across schemes and
    geometries (the sweep engine memoises [prepared]) stop rebuilding
    the per-block tables. *)

val layout_for : prepared -> Config.t -> Wp_layout.Binary_layout.t
(** The layout a configuration runs: the reordered (placed) binary for
    way-placement, the original one for every other scheme. *)

val compiled_for : prepared -> Config.t -> Compiled_trace.t
(** The compiled trace matching {!layout_for}. *)

val run_scheme :
  ?probe:Wp_obs.Probe.t ->
  ?fastforward:bool ->
  ?ff_report:Steady_state.report ->
  ?snapshot_cache:Snapshot_cache.t ->
  prepared ->
  Config.t ->
  Stats.t
(** Evaluate one configuration on the prepared benchmark (picks the
    layout that matches the scheme).  [probe] observes the run's event
    stream; results are bit-identical with or without it.
    [fastforward] / [ff_report] / [snapshot_cache] forward to
    {!Simulator.run_compiled} — results are bit-identical with
    fast-forward on or off, cache attached or not. *)

val run_timeline :
  ?schedule:(int * int) list ->
  ?window_cycles:int ->
  prepared ->
  Config.t ->
  Stats.t * Wp_obs.Sampler.window list
(** Like {!run_scheme} with an attached {!Wp_obs.Sampler}: returns the
    final statistics plus the windowed timeline.  [schedule] is an OS
    resize schedule as for {!Simulator.run_with_resizes} (default
    empty).  The run takes the block-batched fast path, without
    fast-forward: the sampler hears aggregate events and blocks that
    could cross a window boundary are stepped per instruction, so the
    windows are bit-identical to the per-instruction reference loop's,
    and the window sums reproduce the final statistics exactly — see
    {!Wp_obs.Sampler}. *)

type comparison = {
  baseline : Stats.t;
  scheme : Stats.t;
  norm_icache_energy : float;  (** Figures 4a / 5a / 6a *)
  norm_ed : float;  (** Figures 4b / 5b / 6b *)
  norm_cycles : float;
}

val normalise : baseline:Stats.t -> Stats.t -> comparison
(** Normalise a scheme run against its baseline run: the one place the
    figure metrics are computed, for single runs, sweep cells and mp
    aggregates alike.  Pure. *)

val compare_to_baseline : prepared -> Config.t -> comparison
(** Run the scheme config and an otherwise-identical baseline, then
    {!normalise}. *)

val geometric_mean : float list -> float
val arithmetic_mean : float list -> float
