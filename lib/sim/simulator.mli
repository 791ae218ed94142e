(** Trace-driven whole-machine simulation.

    Replays a block trace through the fetch engine, the data-memory
    engine and the core cycle model, and returns the complete
    statistics (counters + energy account + cycles).  The same trace
    replayed under different schemes/configurations yields directly
    comparable runs — the paper's "we always compare equally
    configured machines" protocol (Section 5).

    Two interchangeable replay loops exist, both driving the block
    bodies of {!Block_exec}.  The {e reference path} retires one
    instruction at a time and is taken whenever a general probe is
    attached or [reference_only] is requested.  The {e fast path}
    replays precompiled same-line runs block-batched
    ({!Compiled_trace}, {!Fetch_engine.fetch_run}) and is taken
    otherwise — also under a {!Wp_obs.Sampler} or a resize schedule,
    which become breakpoints: resizes apply between blocks, and a block
    that could reach the sampler's next window boundary is stepped
    through the reference loop's per-instruction body.  The fast path
    charges the data side from the trace's memoised outcome log
    ({!Block_exec.replay_data}); the reference path runs it live.  Both
    produce
    exactly equal {!Stats.t} ({!Stats.equal}, bit-identical energy),
    and a sampler builds bit-identical windows on either — invariants
    enforced by the differential fuzzer ([Check.Differ]),
    [test_fastpath] and [test_obs]. *)

val code_base : Wp_isa.Addr.t
(** Where program text is laid out (0x0001_0000). *)

val set_fastforward_default : bool -> unit
(** Whether fast-path runs engage the steady-state loop fast-forward
    ({!Steady_state}) when the caller does not pass [?fastforward].
    Defaults to [true]: fast-forward is bit-identical to full replay
    (enforced by the differential fuzzer), so there is no
    fidelity-vs-speed trade.  The CLI's [--no-fastforward] flag and the
    differential tests flip this; the setting is process-global and
    atomic. *)

val default_fastforward : unit -> bool
(** The current {!set_fastforward_default} setting — what a run with
    no explicit [fastforward] argument will do.  Other engines honour
    it too (e.g. [Mp.Machine]). *)

val run_compiled :
  ?probe:Wp_obs.Probe.t ->
  ?sampler:Wp_obs.Sampler.t ->
  ?schedule:(int * int) list ->
  ?reference_only:bool ->
  ?fastforward:bool ->
  ?ff_policy:Steady_state.policy ->
  ?ff_report:Steady_state.report ->
  ?snapshot_cache:Snapshot_cache.t ->
  config:Config.t ->
  trace:Wp_workloads.Tracer.trace ->
  Compiled_trace.t ->
  Stats.t
(** The general entry point, replaying a precompiled trace (which
    carries its program and layout).  Defaults: no probe, no sampler,
    empty resize schedule, fast path allowed.  The fast path is taken
    iff no [probe] is attached and [reference_only] is false.

    [probe] observes the full per-access event stream and forces the
    reference loop.  [sampler] receives the run's events too (the
    caller {!Wp_obs.Sampler.finish}es it), but on the fast path:
    same-line tails arrive as aggregate events, and a block that
    cannot reach the next window boundary retires as one event.  Its
    windows are bit-identical to those the reference loop would build
    (with [reference_only], it observes that loop).

    On the fast path with no sampler and an empty schedule, converged
    hot loops are additionally fast-forwarded ({!Steady_state}) when
    [fastforward] (default: the {!set_fastforward_default} setting) is
    true; the result is bit-identical either way.  [ff_policy] tunes the detector;
    [ff_report], if given, accumulates what the engine skipped;
    [snapshot_cache], if given, lets converged iterations be reused
    across regions, runs and sweep cells (keyed on the compiled
    trace's {!Compiled_trace.token} and the full config digest, so
    reuse never crosses worlds).  All four are ignored under a
    sampler, a schedule or the reference path.
    @raise Invalid_argument if the config is invalid, or both [probe]
    and [sampler] are given, or the schedule is not valid as for
    {!run_with_resizes} — before any block is replayed. *)

val run :
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** {!run_compiled} on a freshly compiled trace; takes the fast path.
    Callers with a {!Runner.prepared} in hand should pass its cached
    compiled trace to {!run_compiled} instead.
    @raise Invalid_argument if the config is invalid. *)

val run_reference :
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** {!run} forced through the per-instruction reference loop, never the
    block-batched fast path.  The two produce exactly equal {!Stats.t}
    ({!Stats.equal}) — the invariant the differential fuzzer and
    [test_fastpath] enforce. *)

val run_with_resizes :
  schedule:(int * int) list ->
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** Like {!run}, with an OS resize schedule: ascending
    [(trace_block_index, area_bytes)] pairs — when the replay reaches
    that block the way-placement area is resized (paper Section 4.1,
    "even adjusting it during program execution"; the caches are
    flushed at each resize).  Only meaningful for way-placement
    configurations.  Runs the batched fast path (without
    fast-forward).
    @raise Invalid_argument if the config is invalid, or the schedule
    is non-empty and the scheme is not way-placement, or the schedule is
    not ascending, names a block outside the trace or a non-positive
    area. *)

val run_probed :
  probe:Wp_obs.Probe.t ->
  schedule:(int * int) list ->
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** {!run_with_resizes} with an attached probe observing the run's
    full event stream (see {!Wp_obs.Probe}), one event per access.
    Probed runs always take the reference path; results are
    bit-identical with or without a probe — an invariant the
    differential fuzzer checks across the scheme grid.  [schedule] may
    be empty.  To build a timeline, pass a sampler to {!run_compiled}
    (or use [Runner.run_timeline]) instead: that keeps the fast path. *)
