(** Where an instrumented component reports what it observes: nowhere,
    to a general {!Probe} (one event per occurrence), or straight into a
    {!Sampler}.

    The sampler is the one observer the simulator's batched fast path
    carries, so its hottest reports — energy additions, fetch accesses,
    CAM searches, line fills, D-cache accesses — skip the event
    altogether: the component calls
    the sampler's counting functions directly, with nothing to allocate
    and no closure to enter.  What the sampler ends up with is exactly
    what feeding it the equivalent events would give.  [Quiet] is a
    constant constructor, so an unobserved site costs the one test an
    [option] would. *)

type t = Quiet | Events of Probe.t | Tally of Sampler.t

val make : ?probe:Probe.t -> ?sampler:Sampler.t -> unit -> t
(** @raise Invalid_argument if both are given. *)

val probe : t -> Probe.t option
(** The event sink for sub-components that only speak {!Probe}: the
    probe itself, or the sampler's {!Sampler.probe}. *)

val emit : t -> Probe.event -> unit
(** Report one event.  Callers build the event only when the sink is
    not [Quiet], so the unobserved path allocates nothing. *)
