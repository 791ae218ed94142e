(** A filter cache (Kin et al., MICRO'97) — the "extra buffer between
    the CPU and the instruction cache" family of related work the
    paper contrasts with (Sections 1 and 7).

    A tiny direct-mapped L0 sits in front of the main I-cache.  L0
    hits are very cheap; L0 misses pay an extra cycle {e and} a full
    L1 access, then refill the L0 line — the fetch-latency cost the
    paper calls out.  This module pairs the L0 with any L1 access
    performed by the caller, so the fetch engine charges L1 energy
    through the ordinary path. *)

type t

type result = {
  l0_hit : bool;
  l0_tag_comparisons : int;  (** 1 per access (direct-mapped) *)
  penalty_cycles : int;  (** 1 on an L0 miss *)
}

val create : ?probe:Wp_obs.Probe.t -> l0:Geometry.t -> unit -> t
(** [probe] observes the L0's searches/fills plus one [L0_access]
    event per access; pure observation.
    @raise Invalid_argument unless the L0 is direct-mapped. *)

val access : t -> Wp_isa.Addr.t -> result
(** Probe the L0; on a miss the line is refilled into the L0 (the
    caller performs and charges the L1 access). *)

val flush : t -> unit

val fingerprint : t -> add:(int -> unit) -> unit
(** Canonical state fingerprint of the L0 contents for the
    steady-state fast-forward detector (the backing L1 is owned and
    fingerprinted by the fetch engine). *)
