(** Steady-state loop fast-forward for the block-batched fast path.

    Hot loops reach cache steady state within a few iterations (the
    dominant-block observation).  During replay the engine detects
    periodic trace regions, records one full iteration's effects once
    the canonical machine-state fingerprint is equal at two consecutive
    iteration boundaries, and then multiplies those effects by the
    remaining repetition count instead of replaying them — arithmetic
    instead of simulation, while staying bit-identical to the reference
    loop (integer counters scale as sums; order-sensitive float
    accumulators replay their recorded charge sequences in order).

    {b Detection is a memoised static pre-scan}: which trace stretches
    are periodic is a pure function of the block array, so the
    delta-gated detector — a rolling anchor-delta over each block's
    recurrence distance, escalating to exact O(period) segment
    verification only when the distance holds steady — runs once over
    the trace, off the replay path, and its region list is memoised
    per (trace, policy).  Every scheme, repeat sample and sweep cell
    replaying the same trace shares one scan; a patternless trace
    yields an empty list and {!engaged} lets the caller bypass the
    driver entirely, so detection costs such a run nothing per block.
    The scan is a pure filter: convergence is still established
    exclusively by fingerprint equality at run time, so a scan miss
    costs speed, never correctness.

    {b Converged iterations are reusable}: with a {!Snapshot_cache}
    attached, every boundary snapshot is also a cache lookup, and a
    converged region publishes its (fingerprint, pattern, effects)
    triple.  Re-entering the same pattern in the same observable state
    — a later region of this run, the same hot loop after an
    [Mp.Machine] context switch, another sweep cell replaying the same
    compiled trace under the same configuration — skips from its first
    boundary without re-recording.

    Bail-out conditions: the engine exists only on the unobserved fast
    path (a probe forces the reference loop upstream, and a sampler or
    resize schedule runs the batched loop without fast-forward); within
    it, a region is simply replayed
    normally when fingerprints never match (e.g. RNG-drawing data
    accesses or drowsy timers that break iteration symmetry), when the
    candidate pattern is stream-variant, or when the attempt/snapshot
    budgets run out.  {!report} counts each reason. *)

type policy = {
  max_period_blocks : int;  (** longest loop body considered, in trace blocks *)
  min_skip_instrs : int;
      (** minimum instructions a region could skip to be worth an attempt *)
  max_attempts : int;  (** recorded iterations per region before giving up *)
  snapshot_budget : int;
      (** fingerprint snapshots per run before detection shuts off —
          bounds detector overhead on pathological traces *)
}

val default_policy : policy

type report = {
  mutable regions : int;  (** periodic regions attempted *)
  mutable recorded_iterations : int;  (** iterations executed under recording *)
  mutable converged : int;  (** regions that reached a converged iteration *)
  mutable skipped_iterations : int;
  mutable skipped_instrs : int;  (** dynamic instructions fast-forwarded *)
  mutable gate_rejected : int;
      (** scan-time gate escalations whose exact segment verification
          failed — a stable recurrence distance that was not actually
          periodic *)
  mutable vetoed : int;  (** verified patterns vetoed as stream-variant *)
  mutable cost_gated : int;
      (** verified regions skipped as too small to repay their own
          fingerprint (and attempts abandoned on the same grounds) *)
  mutable budget_exhausted : int;
      (** attempts abandoned on the attempt/snapshot budgets or
          because the region ran out before convergence *)
  mutable cache_hits : int;  (** regions served from the snapshot cache *)
  mutable cache_inserts : int;  (** converged iterations published to it *)
}

val create_report : unit -> report

type ctx = {
  policy : policy;
  report : report;
  stats : Stats.t;
  blocks : int array;  (** the block trace being replayed *)
  n_ids : int;  (** number of distinct block ids (array bound) *)
  n_instrs_of : int -> int;  (** instructions in a block, by id *)
  stream_invariant : start:int -> period:int -> bool;
      (** cheap pre-filter: whether one iteration of the candidate
          pattern leaves the data stream where it started (see
          {!Data_stream.advance_invariant}); convergence is still only
          ever established by fingerprint equality *)
  fingerprint : start:int -> period:int -> add:(int -> unit) -> unit;
      (** canonical fingerprint, at the current point, of the machine
          state one iteration of the pattern at [blocks.(start ..
          start+period)] can observe or modify — state provably
          untouched by the pattern (e.g. the whole data-memory side of
          a pure-compute loop) may be excluded.  [start] is always the
          region's first boundary, so the scanned window is identical
          across a region's snapshots *)
  skip_data : start:int -> period:int -> iters:int -> int;
      (** called at the iteration boundary [start] just before up to
          [iters] repetitions of the pattern are skipped: returns how
          many of them the data side allows, and moves the data side
          past exactly that many.  A live data side allows all of them
          and has nothing to move — fingerprint equality already pins
          its future.  A data side replayed from an outcome log is
          fingerprinted by the current iteration's outcomes, so it
          allows only the iterations whose logged outcomes repeat
          them, and advances its log position *)
  exec : int -> unit;  (** execute the block at a trace position *)
  set_awake_recorder : (int -> unit) option -> unit;
      (** drowsy awake-increment recorder hook (no-op if not drowsy) *)
  drowsy_advance : since:int -> delta:int -> unit;
  drowsy_replay : int array -> len:int -> iters:int -> unit;
  cycles : int ref;  (** the replay loop's cycle accumulator *)
  instrs : int ref;  (** the replay loop's retired-instruction counter *)
  cache : Snapshot_cache.t option;
      (** shared converged-iteration cache; [None] runs detection
          standalone, bit-identical either way *)
  cache_scope : string;
      (** cache key component identifying the replayed world: the
          compiled trace's token plus the full configuration digest.
          Ignored when [cache] is [None] *)
  cycle_headroom : (unit -> int) option;
      (** when present, a skip may add at most this many cycles to
          [cycles] — the multiprogramming scheduler's quantum bound,
          so fast-forward never overruns a time slice and context
          switches land on exactly the reference loop's block
          boundaries.  [None] = unbounded (single-run replay) *)
}

val run : ctx -> unit
(** Drive the whole trace through [ctx.exec], fast-forwarding converged
    periodic regions.  On return every trace position has been either
    executed or skipped-with-exact-effects; [ctx.report] describes
    which. *)

(** {1 Resumable driver}

    The multiprogramming machine executes a trace in quantum-bounded
    slices with context switches in between.  A {!driver} holds the
    replay position and the precomputed region plan across those
    slices, so fast-forward — and snapshot-cache reuse — survives
    preemption. *)

type driver

val make : ctx -> driver
(** Builds (or fetches the memoised) region plan for [ctx.blocks] and
    folds its scan-side counts ([gate_rejected], [vetoed],
    [cost_gated]) into [ctx.report]. *)

val engaged : driver -> bool
(** Whether the plan found any fast-forwardable region.  When [false]
    the driver degenerates to a plain replay loop; single-run callers
    can skip it and run their own loop at zero overhead. *)

val drive : driver -> unit
(** Run the driver to the end of the trace ([run ctx] is
    [drive (make ctx)]). *)

val pos : driver -> int
(** The next trace position to execute (= [Array.length ctx.blocks]
    when the trace is finished). *)

val advance : driver -> until:(unit -> bool) -> unit
(** Execute (or fast-forward) trace positions until the trace ends or
    [until ()] holds; [until] is re-checked after every executed block
    and after every applied skip, so a caller metering cycles stops on
    exactly the block boundary the plain loop would have stopped on.
    An attempt interrupted mid-recording is abandoned (recording is
    observational, so abandonment costs speed only). *)

val reawaken : driver -> unit
(** Re-enable detection from the current position.  A region cut short
    by [until] (or by the cycle-headroom cap) is marked settled so the
    remainder of the current slice doesn't re-fingerprint every block;
    the scheduler calls this when the process is dispatched again, so
    the hot loop's next boundary can hit the snapshot cache. *)
