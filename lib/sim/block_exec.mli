(** The one definition of what a trace block does to the machine: fetch
    through the I-side, touch the D-side, retire on the core.

    {!Simulator} and [Mp.Machine] both drive it.  A {!trace} is one
    compiled trace being replayed with its data stream, its [Stats.t]
    and its cumulative cycle and instruction counters; a {!machine} is
    the hardware it runs on.  [Simulator] pairs one of each per run;
    [Mp.Machine] runs every process (and the interrupt kernel) on one
    shared machine.

    Two bodies execute a block, and they agree bit for bit on
    [Stats.t], cycles and instructions:
    - {!exec} is block-batched: one {!Fetch_engine.fetch_run} per
      same-line run, memory ops replayed after their run in program
      order, cycles from the plan's pre-summed execute latencies and a
      single branch prediction per block.
    - {!step} is per-instruction through a {!Wp_pipeline.Core_model},
      and is the reference loop's definition of the machine. *)

type trace = private {
  blocks : int array;  (** the block trace being replayed *)
  info : Compiled_trace.block_info array;
  plan : Compiled_trace.plan;  (** for the machine's line size *)
  starts : int array;
  bodies : Wp_isa.Instr.t array array;
  taken_succs : int array;
  token : int;  (** the compiled trace's {!Compiled_trace.token} *)
  data_seed : int;  (** the data stream's seed, from the program spec *)
  data : Data_stream.t;  (** the live data stream *)
  mutable outcomes : Bytes.t option;
      (** the outcome log this trace replays its data side from, if
          {!replay_data} switched it over *)
  mutable next_op : int;  (** the next memory op's index in the log *)
  stats : Stats.t;  (** receives every counter bump and energy charge *)
  cycles : int ref;  (** cycles this trace has spent so far *)
  instrs : int ref;  (** instructions it has retired so far *)
}

val trace :
  Config.t ->
  stats:Stats.t ->
  Wp_workloads.Tracer.trace ->
  Compiled_trace.t ->
  trace
(** Counters at zero and a fresh data stream seeded from the compiled
    program's spec. *)

val replay_data : Config.t -> trace -> unit
(** Switch the trace's data side from live accesses to replay: from
    here on every memory op is {!Dmem.charge}d with the next outcome
    of the trace's outcome log, and the machine's D-cache, D-TLB and
    data stream are left untouched.  The log holds one {!Dmem.lookup}
    outcome per memory op in trace order.  It is computed by one
    lookup-only pass over a fresh data side and memoised, weakly keyed
    on the physical block array, per D-state key: the config's
    [dcache], [replacement], [dtlb_entries] and [page_bytes] plus the
    data stream's seed.  Latencies and energy parameters are not in
    the key — {!Dmem.charge} reads them from the run's own machine —
    so runs differing only in those, or only on the I-side, share one
    log.  [Stats.t], energy and observer events come out exactly as
    the live data side makes them.

    Only a run on a machine built from a config agreeing on the key may
    replay, and it must execute every memory op of the trace in order
    or skip whole iterations through {!ff_ctx}'s [skip_data].  A
    machine shared by several traces (multiprogramming) must not: its
    D-TLB shootdowns and shared D-cache make the outcomes depend on
    the schedule.
    @raise Invalid_argument if the trace has already retired
    instructions or already replays. *)

val settle : trace -> unit
(** Write the trace's cycle and instruction counters into its stats. *)

type machine = private {
  engine : Fetch_engine.t;
  dmem : Dmem.t;
  btb : Wp_pipeline.Btb.t;
  mispredict_penalty : int;
}

val machine :
  ?probe:Wp_obs.Probe.t ->
  ?sampler:Wp_obs.Sampler.t ->
  code_base:Wp_isa.Addr.t ->
  Config.t ->
  machine
(** @raise Invalid_argument if the config is invalid, or if both
    [probe] and [sampler] are given. *)

val core : ?probe:Wp_obs.Probe.t -> machine -> Wp_pipeline.Core_model.t
(** A core model predicting on the machine's BTB, for {!step}. *)

val exec : machine -> trace -> int -> limit:int -> unit
(** [exec m t k ~limit] executes the first [limit] same-line runs of
    the block at trace position [k] batched (all of them when [limit]
    is at least their count) and adds their cycles and instructions to
    [t]'s counters.  The terminating branch is predicted only when the
    whole block ran. *)

val step :
  machine -> trace -> Wp_pipeline.Core_model.t -> int -> from:int -> unit
(** [step m t core k ~from] retires the block at trace position [k]
    from instruction [from] on, one instruction at a time through
    [core], and adds the cycles [core] charged and the instructions to
    [t]'s counters. *)

val ff_ctx :
  machine ->
  trace ->
  config:Config.t ->
  policy:Steady_state.policy ->
  report:Steady_state.report ->
  cache:Snapshot_cache.t option ->
  cycle_headroom:(unit -> int) option ->
  Steady_state.ctx
(** The fast-forward context replaying [t] on [m] through {!exec}.
    The cache scope is the compiled trace's token plus
    {!Config.digest}, and whether the data side is live or replayed.
    A live data side is fingerprinted by its D-cache, D-TLB and data
    stream state.  A replayed one ({!replay_data}) is fingerprinted by
    the logged outcomes of the iteration starting at the boundary, and
    its [skip_data] allows only the iterations whose logged outcomes
    repeat those, moving the log position past them. *)
