(** Differential execution of generated programs: the real simulator
    against a naive oracle, and every energy scheme against each other.

    Every energy-saving scheme in the paper (and this repo) rests on
    one architectural invariant: it may change {e where} a line lives
    and {e how much} an access costs, but never {e which} instructions
    execute or (for the non-filter schemes) which accesses hit.  This
    module makes that executable.  For one generated program it runs
    the whole scheme x geometry grid through {!Wp_sim.Runner} and
    checks the laws of one table, {!laws}, by name:

    - once per program: [lint-original] and [lint-placed] — the
      well-formedness lint finds no error in either layout;
    - on every cell: [counters] — conservation: fetches partition into
      same-line + way-placed + full + link-follows, hits + misses equal
      the tag checks, per-scheme counters partition their access modes;
      [fastpath] — the cell's run equals a fast-forward run with a
      shared snapshot cache, a run with fast-forward off and the
      per-instruction reference loop, and a variant with another
      D-cache geometry and D-TLB size, replaying the data side from an
      outcome log of its own, equals its own reference run;
      [baseline-energy] — a baseline run's energy buckets, recomputed
      from its counters, agree with the simulator's account;
      [oracle] — a baseline run's fetch stream replayed through
      {!Oracle_cache} matches fetches, same-line elisions, hits, misses
      and tag comparisons exactly (both replacement policies, elision
      on and off);
    - on every cell of the first geometry: [probe] — probe invariance:
      a rerun with a {!Wp_obs.Sampler} attached leaves the statistics
      bit-identical, and the window sums reproduce every mirrored
      counter, retired instructions, the final cycle and cumulative
      per-bucket energy bit for bit; [windows] — window identity: a
      sampler riding the block-batched fast path builds exactly the
      windows of a sampler attached as a plain probe to the reference
      loop, every field, energy bit for bit, with unchanged statistics,
      at 1, 7 and 1024-cycle windows, and with a generated resize
      schedule (block 0, two interior blocks, the last) on
      way-placement cells; [mp-identity] — an infinite-quantum,
      kernel-free single-process {!Wp_mp.Machine} run, fast path and
      reference path alike, is [Stats.equal] to the cell's own run;
    - on the baseline and wayplace cells of the first geometry:
      [windows-tight] — window identity on a tight-latency variant
      whose bounds have little slack; [mp-mix] — under real
      time-slicing against a fixed cache-polluting partner, the mp fast
      path, the mp reference loop, a snapshot-cached run and a probed
      replay agree bit for bit per process and in aggregate,
      per-process counters sum to the aggregate, and the sampler's
      switch markers recount the machine's switches;
    - on every geometry: [cross] — metamorphic equalities: retired
      instructions, fetches and the whole data side are identical
      across all schemes and layouts, and way-memoization (under
      round-robin) and way-prediction change no hit/miss decision
      relative to the baseline; [soundness] — the static must/may
      classification agrees with the simulated probe stream on the
      original layout;
    - on the first geometry: [soundness-placed] — the same on the
      placed layout; [contract] — the placement contract holds;
      [reserved] — the mp kernel image and the placed layout respect
      the kernel's reserved area; [advise] — the placement advisor's
      laws ({!Wp_advise.Laws}) hold on the placed layout.

    A failing seed is reproducible from its number alone and is shrunk
    with {!Progen.minimize} on the first law it broke, running only
    that law. *)

type violation = { law : string; message : string }
(** A broken law: [law] is its table name (or [prepare] / [run] when
    preparing the program or running a cell raised); [message] names
    the run it broke on. *)

val pp_violation : Format.formatter -> violation -> unit
(** [law: message]. *)

type report = {
  seed : int;
  law : string;  (** the first law the generated program broke *)
  spec : Wp_workloads.Spec.t;
  violations : violation list;  (** on the generated program *)
  shrunk : Wp_workloads.Spec.t;  (** minimised spec still breaking [law] *)
  shrunk_violations : violation list;  (** of [law], on the minimised program *)
}

val default_geometries : Wp_cache.Geometry.t list
(** Small grid (tiny caches so misses, evictions and way conflicts are
    actually exercised); the first geometry also runs the replacement /
    elision / invalidation ablations. *)

val configs_for :
  ablations:bool -> Wp_cache.Geometry.t -> (string * Wp_sim.Config.t) list
(** The labelled cells of one geometry: the five schemes, plus the
    four ablations when [ablations] (the first geometry). *)

(** {2 The law table} *)

type program
(** One generated program, prepared once. *)

type grid
(** One geometry and the results of its cells. *)

type cell
(** One labelled configuration and its run. *)

type check =
  | Per_spec of (program -> string list)  (** once per program *)
  | Per_geometry of (program -> grid -> string list)
      (** once per geometry, over that geometry's cells *)
  | Per_cell of (program -> cell -> string list)  (** once per cell *)
(** A law's scope and its check, which returns the messages of what it
    found broken. *)

type law = {
  name : string;
  applies : first_geometry:bool -> label:string -> bool;
      (** which geometries and cells the law runs on; geometry laws see
          [~label:""], spec laws run once regardless *)
  check : check;
}

val laws : law list
(** Every law, in the order {!check_spec} runs them within a scope. *)

val check_spec :
  ?geometries:Wp_cache.Geometry.t list ->
  ?law:string ->
  Wp_workloads.Spec.t ->
  violation list
(** One fold over {!laws}: spec laws, then per geometry each cell's laws
    and the geometry's laws.  [[]] means every law held.  With [law],
    only that law runs, on only the cells it needs ([run] runs every
    cell and no law).  An exception from a check, from preparing the
    program or from a cell's run is one violation, [<where>: raised:
    <exn>].  Deterministic. *)

val check_seed : ?geometries:Wp_cache.Geometry.t list -> int -> violation list
(** {!check_spec} of {!Progen.spec_of_seed}. *)

val run_seed :
  ?check:(?law:string -> Wp_workloads.Spec.t -> violation list) ->
  int ->
  report option
(** One fuzz case: [None] when clean; otherwise the report, with the
    spec shrunk to a locally minimal program that still breaks the
    first law the seed broke.  While shrinking, only that law runs.
    [check] defaults to {!check_spec} (tests inject artificial
    laws to exercise the shrink pipeline). *)

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
