(** Windowed timeline sampler.

    Consumes the {!Probe} event stream of one simulation run and
    aggregates it into fixed-cycle windows (default
    {!default_window_cycles}).  The sampler's clock is the cumulative
    [Retire] event; a window closes on the first retire at or past the
    next nominal boundary, so windows are contiguous ([end_cycle] of
    one is [start_cycle] of the next) and their cycle spans telescope
    to the run's total cycle count.

    Conservation law: every counter event mirrors [Sim.Stats]
    increments (one, or [n] for an aggregate event) at the site where
    the simulator performs them, so summing a column over all windows
    reproduces the final statistics exactly; per-bucket cumulative
    energy mirrors the [Energy.Account] additions in order ([Energy_run]
    events are replayed addition by addition), making the last window's
    [cum_energy_pj] bit-identical to the account.  [Check.Differ] fuzzes
    this invariant, and that the windows of a batched fast-path run equal
    the reference loop's field for field; the unit tests pin both for
    baseline, way-placement and drowsy runs. *)

module Counter : sig
  type t =
    | Same_line_fetches
    | Wp_fetches
    | Full_fetches
    | Link_follows
    | Icache_hits
    | Icache_misses
    | L0_hits
    | L0_misses
    | Tag_comparisons
    | Hint_correct_wp
    | Hint_correct_normal
    | Hint_missed_saving
    | Hint_reaccess
    | Waypred_correct
    | Waypred_wrong
    | Drowsy_wakes
    | Link_writes
    | Links_invalidated
    | Itlb_misses
    | Dtlb_misses
    | Dcache_accesses
    | Dcache_misses
    | Line_fills
    | Evictions

  val index : t -> int
  (** Dense index into [window.counters]. *)

  val name : t -> string
  val all : t list
  val count : int
end

type marker =
  | Resize of { cycle : int; area_bytes : int }
  | Flush of { cycle : int }
  | Switch of { cycle : int; next : int }
      (** context switch: process [next] dispatched at [cycle] *)

val marker_cycle : marker -> int

type window = {
  index : int;
  start_cycle : int;  (** cumulative cycles when the window opened *)
  end_cycle : int;  (** cumulative cycles when it closed *)
  retired : int;  (** instructions retired within the window *)
  counters : int array;  (** window-local deltas, [Counter.index]ed *)
  energy_pj : float array;  (** window-local, [Probe.bucket_index]ed *)
  cum_energy_pj : float array;  (** cumulative through window end *)
  ways_hist : (int * int) list;
      (** CAM searches by ways precharged, ascending *)
  markers : marker list;  (** resizes and flushes, chronological *)
}

val get : window -> Counter.t -> int
val fetches : window -> int
val cycles : window -> int
val ipc : window -> float

val default_window_cycles : int
(** 10_000. *)

type t

val create : ?window_cycles:int -> unit -> t
(** Raises [Invalid_argument] if [window_cycles <= 0]. *)

val probe : t -> Probe.t
(** The sink to attach to a simulation run.  Events arriving after
    {!finish} are discarded. *)

val observe : t -> Probe.event -> unit
(** Feed one event; [observe t] behaves as [probe t]. *)

val count : t -> Counter.t -> int -> unit
(** [count t c n] adds [n] to counter [c] of the current window: what
    the events mirroring [n] such increments would do. *)

val tag_search : t -> ways:int -> unit
(** What [Tag_search { ways }] does. *)

val fetch_access : t -> Probe.fetch_kind -> comparisons:int -> hit:bool -> unit
(** One tag-checked fetch: what [Fetch kind], [Tag_comparisons
    comparisons] and [Icache_access { hit }] would do, in one call. *)

val energy_accumulators : t -> float array * float array
(** The window-local and cumulative per-bucket energy accumulators
    ({!Probe.bucket_index}ed), for an energy account to keep up to date
    in place.  For an account that starts at zero with the sampler
    attached, adding [pj] to window cell [i] and setting cumulative cell
    [i] to the account's new total is exactly what the probe does with
    [Energy { bucket; pj }].  The arrays are the sampler's own; the
    window cells are reset in place when a window closes. *)

val next_boundary : t -> int
(** The cumulative cycle count at or past which the next [Retire]
    closes the current window ([max_int] once finished).  The batched
    fast path bounds its runs against it: runs whose worst-case cycle
    count cannot reach it cannot close a window, so one aggregate
    [Retire] for a stretch of them builds the same windows as one per
    instruction. *)

val finish : t -> window list
(** Close the current window and return all windows in order.
    Idempotent. *)

val sum_counters : window list -> int array
val sum_energy : window list -> float array

val final_cum_energy : window list -> float array
(** The last window's cumulative per-bucket energy (zeros if empty). *)
