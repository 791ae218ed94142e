(** Probe bus: the event vocabulary the simulator can emit.

    A probe is just a sink function; instrumented modules hold a
    [Probe.t option] and emission sites pattern-match on it so that the
    event value is only ever allocated inside the [Some] branch.  With
    the probe absent every site costs one comparison and a branch —
    simulation results ([Sim.Stats]) are bit-identical either way, which
    [Check.Differ] enforces across the scheme grid.

    Counter-like events mirror the increments of [Sim.Stats] at the
    sites where the simulator bumps the corresponding field: one event
    per increment on the per-instruction reference loop, and aggregate
    events ([Fetches], [Energy_run]) where the block-batched fast path
    performs many identical increments at once (a same-line run's tail).
    Either way the event stream adds up to the same statistics, so
    window aggregation is conservative by construction: summing any
    partition of the stream at [Retire] points reproduces the final
    statistics (see {!Sampler}).  A general probe passed to the
    simulator keeps the reference loop and sees one event per access; a
    sampler passed as such rides the batched loop and is mostly counted
    into directly ({!Sink}). *)

type fetch_kind =
  | Same_line  (** sequential fetch within the last line, tag check elided *)
  | Way_placed  (** way-placement hit path: one comparator *)
  | Full  (** full CAM search over all ways *)
  | Link_follow  (** way-memoization link followed, no tag check *)

type hint_outcome = Correct_wp | Correct_normal | Missed_saving | Reaccess

type bucket = Icache | Itlb | Dcache | Memory | Core

type event =
  | Fetch of fetch_kind
  | Fetches of { kind : fetch_kind; n : int }
      (** [n] fetches of one kind in a row: what [n] [Fetch kind]
          events would count.  The batched fast path reports a
          same-line run's elided tail this way. *)
  | Icache_access of { hit : bool }
  | L0_access of { hit : bool }  (** filter-cache L0 probe *)
  | Tag_comparisons of int
  | Tag_search of { ways : int }
      (** one CAM search precharging [ways] comparators; the per-window
          histogram of these is the ways-enabled distribution *)
  | Line_fill of { evicted : bool }
  | Hint of hint_outcome
  | Way_prediction of { correct : bool }
  | Link_write
  | Links_invalidated of int
  | Drowsy_wake
  | Itlb_miss
  | Dtlb_miss
  | Dcache_access of { miss : bool }
  | Energy of { bucket : bucket; pj : float }
      (** mirrors one [Energy.Account] addition; with [Energy_run],
          every addition is mirrored, in order *)
  | Energy_run of { bucket : bucket; pj : float; n : int }
      (** [n] successive additions of [pj] to one bucket — a consumer
          that needs the account's float-add order replays them one by
          one *)
  | Retire of { cycles : int; instrs : int }
      (** cumulative totals after retiring one or more instructions —
          the sampler's clock.  The reference loop emits one per
          instruction; the batched fast path one per stretch of runs
          that cannot reach the sampler's next window boundary, where
          the clock is next read *)
  | Resize of { area_bytes : int }  (** way-placement area resized *)
  | Flush
  | Context_switch of { next : int }
      (** the multiprogramming scheduler dispatched process [next]
          (its index in the mix) after a context switch *)

type t = event -> unit
(** An event sink.  Must not raise. *)

val null : t
(** Discards every event. *)

val buckets : bucket list
(** All energy buckets, in {!bucket_index} order. *)

val bucket_index : bucket -> int
(** Dense index 0..4, for array-indexed accumulation. *)

val bucket_name : bucket -> string

val fetch_kind_name : fetch_kind -> string

val pp_event : Format.formatter -> event -> unit
