(** The multiprogrammed machine: N processes time-sliced on one
    simulated core.

    One shared fetch path ({!Wp_sim.Fetch_engine}: CAM I-cache, I-TLB,
    way hint, drowsy state), one shared data side and one shared BTB
    serve every process — cache contents are physical and deliberately
    survive context switches, so way-placed and non-way-placed
    processes pollute each other's ways.  Per process the machine keeps
    the compiled image (laid out at a private page-aligned base, so
    address windows never overlap), a data stream, and a {!Wp_sim.Stats.t}
    receiving every counter bump and energy charge the process causes.

    A context switch costs: the interrupt-handler kernel ({!Kernel},
    charged to the system account), a full I-TLB + D-TLB shootdown (no
    ASIDs), optionally a BTB reset and a drowsy full-sleep, and the
    way-placement window retarget for the incoming process.

    The machine is a quantum scheduler over {!Wp_sim.Block_exec}: every
    process runs on one shared {!Wp_sim.Block_exec.machine}, through the
    block-batched body inside a quantum, or through the per-instruction
    body on one machine-wide core when a probe is attached (or
    [reference_only] is set); both paths produce bit-identical
    [Stats.t] — the mp differ asserts it over the fuzz corpus.  With a single-process mix, an infinite quantum and no
    kernel, the aggregate is bit-identical to {!Wp_sim.Simulator.run}
    (provided the process is placed iff the scheme is way-placement) —
    the identity oracle. *)

type btb_policy =
  | Btb_shared  (** BTB survives switches (physically indexed) *)
  | Btb_flush  (** BTB reset at every address-space change *)

type drowsy_policy =
  | Drowsy_shared
      (** drowsy timestamps survive a switch, rebased onto the incoming
          process's fetch clock *)
  | Drowsy_flush  (** every line dropped drowsy at a switch *)

type sched_policy =
  | Round_robin
  | Priority  (** highest static priority; round-robin among equals *)

type options = {
  quantum_cycles : int;  (** time slice in cycles; [<= 0] = infinite *)
  kernel : bool;  (** run the interrupt kernel at switch boundaries *)
  btb_policy : btb_policy;
  drowsy_policy : drowsy_policy;
  sched : sched_policy;
}

val default_options : options
(** 50k-cycle quantum, kernel on, shared BTB and drowsy state,
    round-robin. *)

val oracle_options : options
(** Infinite quantum, no kernel — the identity-oracle configuration. *)

type process_result = {
  pr_name : string;
  pr_placed : bool;  (** effective placement (scheme-dependent) *)
  pr_base : Wp_isa.Addr.t;  (** where the image was laid out *)
  pr_stats : Wp_sim.Stats.t;
      (** everything this process caused: counters, cycles, retired
          instructions and energy *)
  pr_dispatches : int;
}

type result = {
  aggregate : Wp_sim.Stats.t;
      (** per-process + system, counter by counter and bucket by
          bucket: attribution sums to this exactly *)
  processes : process_result list;  (** in mix order *)
  system : Wp_sim.Stats.t;
      (** the OS share: kernel fetches/cycles and the machine's
          leakage charge *)
  switches : int;  (** dispatches that changed the running process *)
  kernel_runs : int;
  timer_fires : int;  (** quantum expiries *)
}

val switches_per_million : result -> float
(** Context switches per million retired instructions — the headline
    pressure metric of the quantum-sweep experiment. *)

val conserves : result -> bool
(** The attribution law: every integer counter of the per-process
    stats plus the system stats sums exactly to the aggregate. *)

val run :
  ?probe:Wp_obs.Probe.t ->
  ?reference_only:bool ->
  ?fastforward:bool ->
  ?ff_policy:Wp_sim.Steady_state.policy ->
  ?ff_report:Wp_sim.Steady_state.report ->
  ?snapshot_cache:Wp_sim.Snapshot_cache.t ->
  config:Wp_sim.Config.t ->
  options:options ->
  Mix.t ->
  result
(** Run the mix to completion (every process drains its trace).
    [probe] observes the machine-wide event stream — counter events
    from the shared engine, per-process and system energy, cumulative
    machine [Retire] ticks, and a [Context_switch] marker per switch —
    and forces the reference loop.

    On the fast path each user process carries a resumable
    {!Wp_sim.Steady_state} driver: hot loops fast-forward inside a
    quantum, skips are capped so they never cross a quantum boundary
    (context switches land on exactly the reference loop's block
    boundaries), and with a [snapshot_cache] a loop interrupted by a
    switch re-converges from its cached iteration instead of
    re-recording.  [fastforward] defaults to
    {!Wp_sim.Simulator.set_fastforward_default}'s setting; results are
    bit-identical with fast-forward on or off, cache or no cache — the
    mp differ asserts it over the fuzz corpus.
    @raise Invalid_argument on an invalid config or mix. *)
