(** The CAM-tag set-associative cache (XScale organisation).

    Each set is a fully-associative CAM sub-bank: a lookup precharges
    the match lines of the searched ways, broadcasts the tag, and on a
    match reads the corresponding data word.  The model tracks exactly
    the events the energy model charges for: tag comparisons performed,
    match lines precharged, data reads and line fills.

    The cache never fills implicitly — a lookup reports a miss and the
    caller decides how (and into which way) to fill.  This is what lets
    the fetch engine implement baseline, way-placement and
    way-memoization behaviour on one substrate. *)

type t

type outcome = {
  hit : bool;
  way : int;  (** way that hit, or [-1] on a miss *)
  tag_comparisons : int;  (** CAM compares performed *)
  ways_precharged : int;  (** match lines precharged *)
}

type fill_policy =
  | Victim_by_policy  (** round-robin or LRU chooses the way *)
  | Forced_way of int  (** way-placement pins the way *)

type eviction = { set : int; way : int; tag : int }
(** A valid line that was overwritten by a fill. *)

val create :
  ?probe:Wp_obs.Probe.t ->
  ?sampler:Wp_obs.Sampler.t ->
  Geometry.t ->
  replacement:Replacement.t ->
  t
(** [probe] observes every CAM search ([Tag_search], with the number of
    ways precharged) and line fill ([Line_fill]); [sampler] has them
    counted into it directly ({!Wp_obs.Sink}).  Pure observation, never
    affects behaviour; at most one of the two may be given. *)

val geometry : t -> Geometry.t

val lookup_full : t -> Wp_isa.Addr.t -> outcome
(** Normal access: search every way of the address's set
    ([assoc] comparisons, [assoc] precharges). *)

val lookup_full_way : t -> Wp_isa.Addr.t -> int
(** Allocation-free twin of {!lookup_full} for the per-fetch simulator
    paths: identical cache-state and probe effects, but returns just
    the hit way ([-1] on a miss).  [tag_comparisons] and
    [ways_precharged] are implied (both [assoc]). *)

val lookup_line_run : t -> Wp_isa.Addr.t -> n:int -> outcome
(** [n] back-to-back {!lookup_full} accesses to one {e already
    resident} line, charged in a single call: the outcome aggregates
    the run ([tag_comparisons] and [ways_precharged] are [n * assoc]),
    [n] [Tag_search] probe events are emitted, and the replacement
    state is left exactly as [n] successive [lookup_full] calls would
    leave it.  The batched fetch path uses this for same-line streaks
    when tag elision is disabled.
    @raise Invalid_argument if [n <= 0] or the line is not resident. *)

val lookup_line_run_way : t -> Wp_isa.Addr.t -> n:int -> int
(** Allocation-free twin of {!lookup_line_run}: identical cache-state
    and probe effects, returns just the resident way
    ([tag_comparisons] and [ways_precharged] are implied, [n * assoc]
    each).
    @raise Invalid_argument if [n <= 0] or the line is not resident. *)

val lookup_way : t -> Wp_isa.Addr.t -> way:int -> outcome
(** Way-placement access: probe a single way (1 comparison,
    1 precharge).  A line resident in a {e different} way is
    deliberately not found — mirroring the hardware. *)

val lookup_way_hit : t -> Wp_isa.Addr.t -> way:int -> bool
(** Allocation-free twin of {!lookup_way}: identical cache-state and
    probe effects, returns just the hit bit (1 comparison and
    1 precharge are implied).
    @raise Invalid_argument if [way] is out of range. *)

val fill : t -> Wp_isa.Addr.t -> fill_policy -> int * eviction option
(** Install the line for [addr]; returns the way used and the evicted
    valid line, if any.  If the line is already resident this is a
    no-op returning its way (no eviction).
    @raise Invalid_argument if a forced way is out of range. *)

val fill_absent : t -> Wp_isa.Addr.t -> fill_policy -> int * eviction option
(** {!fill} for a line the caller has just observed to miss: skips the
    redundant residence scan.  Behaviour is identical to [fill] {e only
    when the line is absent} — the miss-path callers invoke it directly
    after a failed lookup, with no intervening cache operation. *)

val probe : t -> Wp_isa.Addr.t -> int option
(** Side-effect-free residence check (for tests and assertions). *)

val resident_way : t -> Wp_isa.Addr.t -> int
(** {!probe} without the option: the resident way, or [-1].  For
    assertions on per-fetch paths where the option would allocate. *)

val invalidate : t -> set:int -> way:int -> unit
val flush : t -> unit
val valid_lines : t -> int
val resident_tags : t -> set:int -> (int * int) list
(** [(way, tag)] pairs of valid lines in a set, ascending way order. *)

val fingerprint : t -> add:(int -> unit) -> unit
(** Emit a canonical fingerprint of the cache state: tags ([-1] for
    invalid slots), per-set MRU and round-robin cursors, and — under
    LRU — each way's age {e rank} within its set rather than its raw
    timestamp (only the ordering is observable, via victim choice).
    Equal fingerprints imply bisimilar caches: every subsequent lookup,
    fill and victim choice behaves identically.  Used by the
    steady-state fast-forward detector. *)

val pp : Format.formatter -> t -> unit
