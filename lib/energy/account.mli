(** Energy bookkeeping for one simulation run.

    Buckets follow the paper's reporting: "instruction cache energy"
    (Figures 4a, 5a, 6a) is the [icache] bucket alone; the ED product
    (Figures 4b, 5b, 6b) uses the total over all buckets times the
    cycle count. *)

type t

val create : unit -> t

val set_probe : t -> Wp_obs.Probe.t option -> unit
(** Attach (or with [None], detach) an observer: every subsequent
    [add_*] call emits a matching [Probe.Energy] (or, for
    {!add_icache_run}, [Probe.Energy_run]) event, in addition order, so
    an attached sampler's cumulative per-bucket totals stay
    bit-identical to this account.  Never affects the totals.  Replaces
    any attached sampler. *)

val set_sampler : t -> Wp_obs.Sampler.t option -> unit
(** Attach (or with [None], detach) a sampler directly: every
    subsequent addition is also made, in order, to the sampler's
    window-local accumulator, and its cumulative accumulator follows
    this account's totals ({!Wp_obs.Sampler.energy_accumulators}).
    Attached to a fresh account, that is what its probe would make of
    the [Probe.Energy] events, without building them.  Replaces any
    attached probe. *)

val add_icache : t -> float -> unit

val add_icache_run : t -> float -> n:int -> unit
(** [add_icache_run t e ~n] leaves the totals bit-identical to calling
    [add_icache t e] [n] times (same accumulation order), with the
    per-call dispatch hoisted out of the loop — the batched fetch path's
    bulk charge.  An attached observer receives one
    [Probe.Energy_run { n }] event instead of [n] [Probe.Energy]
    events. *)

val add_itlb : t -> float -> unit
val add_dcache : t -> float -> unit
val add_memory : t -> float -> unit
val add_core : t -> float -> unit

val replay : t -> charges:float array array -> lens:int array -> iters:int -> unit
(** [replay t ~charges ~lens ~iters] adds [iters] repetitions of a
    recorded charge sequence to each bucket: [charges.(b).(0 ..
    lens.(b)-1)] in recorded order, with buckets in the order of
    {!Wp_obs.Probe.buckets}.  Buckets are independent accumulators, so
    this is bit-identical to re-running the [add_*] calls that produced
    the recording.  The fast-forward engine records one loop iteration
    through a probe and replays the skipped iterations here.
    @raise Invalid_argument if a probe or sampler is attached (events
    would be lost) or the arrays are malformed. *)

val icache_pj : t -> float
val itlb_pj : t -> float
val dcache_pj : t -> float
val memory_pj : t -> float
val core_pj : t -> float
val total_pj : t -> float

val icache_share : t -> float
(** I-cache fraction of the total — the motivating statistic
    (27% on the StrongARM, paper Section 1). *)

val pp : Format.formatter -> t -> unit
