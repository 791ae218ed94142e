(** Parallel sweep engine: the evaluation harness's core workload.

    Every figure, ablation and extension of the paper's evaluation is
    a {e sweep} — a grid of [benchmark x Config.t] jobs, each an
    independent {!Runner.prepare} + {!Simulator.run}.  Jobs share
    nothing mutable (each run builds fresh caches, TLBs and stats), so
    a sweep is embarrassingly parallel; what they {e do} share is
    work: figures reuse each other's baselines and several
    configurations per benchmark reuse one prepared program.

    This module supplies both halves:

    - {b memoisation} — per-benchmark {!Runner.prepared} values and
      per-job {!Stats.t} results are computed once and cached,
      thread-safely, keyed on the {e complete} configuration (every
      [Config.t] field participates in the key, unlike an ad-hoc
      printed key that silently merges configs differing in an
      unlisted field);
    - {b a domain pool} — {!run_batch} deduplicates a job list and
      fans it out over OCaml 5 domains coordinated by a
      [Mutex]/[Condition] work queue.  Results are bit-identical to a
      sequential run and are returned in input order; progress
      callbacks fire on the submitting domain, in completion order.

    A sweep engine is cheap to create and long-lived: create one per
    process and feed it every experiment so baselines dedup across
    figures. *)

(** The generic domain pool the sweep engine runs on, exposed so other
    embarrassingly parallel harnesses (the differential fuzzer, future
    sweeps over non-MiBench inputs) fan out over the same machinery
    instead of growing their own. *)
module Pool : sig
  type 'a progress = 'a -> seconds:float -> completed:int -> total:int -> unit
  (** Called once per completed item: the item, its own wall-clock
      cost, and batch progress.  Invocations are serialised and, when
      the pool is parallel, always run on the domain that called
      {!map} — callbacks may print freely. *)

  val map : workers:int -> ?progress:'a progress -> ('a -> 'b) -> 'a list -> 'b list
  (** [map ~workers f items] computes [List.map f items] on a pool of
      [workers] domains (clamped to at least 1 and at most the item
      count; 1 runs sequentially on the calling domain).  Results are
      returned in input order; progress fires in completion order.  If
      [f] raises, no further items are started and the first exception
      is re-raised on the calling domain after the pool drains —
      all-or-nothing by design; items whose [f] completed before the
      failure are lost from the return value (though side effects,
      e.g. the sweep engine's memo tables, survive).  The pool itself
      never deadlocks on a raising job: every worker domain is joined
      before the exception propagates. *)

  val map_result :
    workers:int ->
    ?progress:'a progress ->
    ('a -> 'b) ->
    'a list ->
    ('b, exn) result list
  (** Per-item error isolation: like {!map} but a raising item becomes
      its own [Error exn] slot and {e does not} stop the cursor or
      poison unrelated items — the contract a request-serving batch
      needs, where one malformed job must not take down its
      batch-mates.  Never raises from [f]'s failures. *)

  (** A persistent domain pool for open-ended workloads: the serve
      daemon's scheduler.  Unlike {!map} (one pool per batch), an
      executor spawns its domains once and consumes submitted thunks
      until {!Executor.shutdown}, which {e drains} every accepted task
      before joining — the graceful-stop guarantee that a shutdown
      mid-burst loses no accepted request. *)
  module Executor : sig
    type t

    val create : ?workers:int -> ?on_error:(exn -> unit) -> unit -> t
    (** [workers] defaults to [Domain.recommended_domain_count ()],
        clamped to at least 1.  A raising task invokes [on_error] (on
        the worker domain) and the worker survives; without it the
        exception is swallowed — an executor task is expected to
        isolate its own failures. *)

    val workers : t -> int

    val submit : t -> (unit -> unit) -> bool
    (** Enqueue a task; [false] (task not accepted) once {!shutdown}
        has begun.  Thread- and domain-safe. *)

    val pending : t -> int
    (** Tasks queued or currently executing. *)

    val shutdown : t -> unit
    (** Stop accepting, run everything already accepted, join the
        domains.  Idempotent from the first caller's perspective;
        concurrent callers all block until the drain completes. *)
  end
end

type job = { benchmark : string; config : Config.t }
(** One simulation: a MiBench benchmark name ({!Wp_workloads.Mibench.find})
    evaluated under one machine configuration. *)

type progress = job Pool.progress
(** Per-job progress for {!run_batch} (see {!Pool.progress}). *)

type t

val create : ?workers:int -> ?progress:progress -> unit -> t
(** A fresh engine with empty caches.  [workers] defaults to
    {!default_workers}; it is clamped to at least 1, and 1 means
    {!run_batch} runs sequentially on the calling domain (no domains
    are spawned). *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware's available
    parallelism. *)

val workers : t -> int

val snapshot_cache : t -> Snapshot_cache.t
(** The engine's shared converged-iteration cache: every job this
    engine runs attaches it ({!Runner.run_scheme}'s [snapshot_cache]),
    so a hot loop converged in one sweep cell fast-forwards from its
    first boundary in every later cell replaying the same compiled
    trace under the same configuration.  Scoped keys (trace token +
    config digest) make cross-world reuse impossible; results stay
    bit-identical with or without the cache. *)

val config_key : Config.t -> string
(** A stable key covering every field of the configuration (a digest
    of its runtime representation).  Two configs get the same key iff
    they are structurally equal. *)

val job_key : job -> string
(** [benchmark] + {!config_key} — the memoisation key. *)

val job_label : job -> string
(** Human-readable ["crc x way-placement(16KB) @ 32KB/32w/32B"] for
    progress lines and logs. *)

val print_progress : progress
(** The progress line every sweep front end prints on stderr:
    [[sweep  3/40] <job_label> 0.12s]. *)

val dedup : job list -> job list
(** Distinct jobs by {!job_key}, first occurrence order preserved. *)

val with_baselines : job list -> job list
(** Each job followed by its baseline partner (same benchmark, same
    config with the scheme replaced by {!Config.Baseline}), deduped —
    the expansion every normalised figure needs. *)

val prepared : t -> string -> Runner.prepared
(** Memoised {!Runner.prepare} of a benchmark (by MiBench name).
    Thread-safe; concurrent callers of the same benchmark block until
    the first finishes, different benchmarks prepare concurrently.
    @raise Not_found for an unknown benchmark name. *)

val stats : t -> job -> Stats.t
(** Memoised result of the job.  A cache miss computes the run on the
    calling domain (sequentially); {!run_batch} is the parallel way to
    warm the cache. *)

val completed : t -> int
(** Number of distinct jobs simulated so far (cache size). *)

val timeline :
  ?schedule:(int * int) list ->
  ?window_cycles:int ->
  t ->
  job ->
  Stats.t * Wp_obs.Sampler.window list
(** {!Runner.run_timeline} on the engine's memoised prepared benchmark:
    any sweep cell can emit a windowed timeline.  The run itself is not
    cached (a sampler observes one specific run), but its stats are
    bit-identical to {!stats} of the same job. *)

val run_batch : t -> job list -> Stats.t list
(** Deduplicate [jobs], simulate every not-yet-cached one on the
    worker pool, and return the stats of [jobs] {e in input order}
    (duplicates included).  Results are bit-identical to running the
    same jobs sequentially: jobs share no mutable simulation state,
    and memoisation guarantees each distinct job is simulated exactly
    once.  If a job raises, no further jobs are started and the
    exception is re-raised on the calling domain after the pool
    drains. *)
