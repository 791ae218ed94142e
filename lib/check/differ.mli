(** Differential execution of generated programs: the real simulator
    against a naive oracle, and every energy scheme against each other.

    Every energy-saving scheme in the paper (and this repo) rests on
    one architectural invariant: it may change {e where} a line lives
    and {e how much} an access costs, but never {e which} instructions
    execute or (for the non-filter schemes) which accesses hit.  This
    module makes that executable.  For one generated program it runs
    the whole scheme x geometry grid through {!Wp_sim.Runner} and
    checks:

    - {b oracle equality} — every baseline run's fetch stream is
      replayed through {!Oracle_cache}; fetches, same-line elisions,
      hits, misses and tag comparisons must match exactly (both
      replacement policies, elision on and off);
    - {b conservation laws} — fetches partition into same-line +
      way-placed + full + link-follows; hits + misses equal the tag
      checks; per-scheme counters partition their access modes; the
      baseline's energy buckets are recomputed from its counters and
      must agree with the simulator's account;
    - {b metamorphic equalities} — retired instructions, fetches and
      the whole data side are identical across {e all} schemes and
      layouts (way-placement changes placement, never execution);
      way-memoization (under round-robin — blind link follows skip LRU
      touches by design) and way-prediction (any policy) must not
      change a single hit/miss decision relative to the baseline;
    - {b probe invariance} — rerunning a cell with a
      {!Wp_obs.Sampler} attached leaves the statistics bit-identical
      ({!Wp_sim.Stats.equal}), and the sampler's window sums reproduce
      them: every mirrored counter exactly, retired instructions and
      final cycle count exactly, cumulative per-bucket energy
      bit-for-bit;
    - {b window identity} — a sampler riding the block-batched fast path
      (aggregate events, direct counts, stepping only the runs that
      could cross a window boundary) builds exactly the windows of a
      sampler attached as a plain probe to the per-instruction reference
      loop — every field, energy bit for bit — with unchanged statistics,
      at 1, 7 and 1024-cycle windows, with and without a generated
      resize schedule (at block 0, two interior blocks and the last),
      and on a tight-latency variant whose bounds have little slack;
    - {b fast-path identity} — every cell's run equals a fast-forward
      run with a shared snapshot cache, a run with fast-forward off and
      the per-instruction reference loop; and a variant of the cell
      with another D-cache geometry and D-TLB size, replaying the data
      side from an outcome log of its own, equals its own reference
      run;
    - {b multiprogramming laws} — an infinite-quantum, kernel-free
      single-process {!Wp_mp.Machine} run, on the fast path and on the
      reference path alike, is [Stats.equal] to the cell's own
      [Simulator.run] (the mp identity oracle, every cell of the first
      geometry); under real time-slicing against a fixed
      cache-polluting partner, the mp fast path, the mp reference loop
      and a probed replay agree bit-for-bit per process and in
      aggregate, per-process counters sum to the aggregate exactly, and
      the sampler's switch markers recount the machine's switches.

    A failing seed is reproducible from its number alone and is
    shrunk with {!Progen.minimize} before reporting. *)

type violation = string

type report = {
  seed : int;
  spec : Wp_workloads.Spec.t;
  violations : violation list;  (** on the generated program *)
  shrunk : Wp_workloads.Spec.t;  (** minimised still-failing spec *)
  shrunk_violations : violation list;  (** on the minimised program *)
}

val default_geometries : Wp_cache.Geometry.t list
(** Small grid (tiny caches so misses, evictions and way conflicts are
    actually exercised); the first geometry also runs the replacement /
    elision / invalidation ablations. *)

val check_spec :
  ?geometries:Wp_cache.Geometry.t list -> Wp_workloads.Spec.t -> violation list
(** All violations found for one program; [[]] means every invariant
    held.  Deterministic. *)

val check_seed : ?geometries:Wp_cache.Geometry.t list -> int -> violation list
(** {!check_spec} of {!Progen.spec_of_seed}. *)

val run_seed :
  ?check:(Wp_workloads.Spec.t -> violation list) -> int -> report option
(** One fuzz case: [None] when clean; otherwise the report, with the
    spec already shrunk to a locally minimal still-failing program.
    [check] defaults to {!check_spec} (tests inject artificial
    invariants to exercise the shrink pipeline). *)

val fuzz :
  ?workers:int ->
  ?progress:int Wp_sim.Sweep.Pool.progress ->
  seed:int ->
  count:int ->
  unit ->
  report list
(** Run seeds [seed .. seed + count - 1], fanned out over the sweep
    engine's domain pool ([workers] defaults to
    {!Wp_sim.Sweep.default_workers}); the result list is in seed order
    and independent of [workers].  Returns the failing reports
    (hopefully none). *)

val pp_report : Format.formatter -> report -> unit
(** Seed, violations, and the shrunk repro — everything needed to
    reproduce the failure from a terminal. *)
