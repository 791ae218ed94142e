(** Machine configuration (paper Table 1 plus the scheme under test). *)

type scheme =
  | Baseline  (** unmodified instruction cache *)
  | Way_placement of { area_bytes : int }
      (** the paper's scheme, with the OS-chosen way-placement area *)
  | Way_memoization  (** the hardware comparator, Ma et al. [12] *)
  | Way_prediction
      (** MRU way prediction, Inoue et al. [6] — related work the paper
          contrasts with: mispredictions need recovery logic and cost a
          cycle *)
  | Filter_cache of { l0_bytes : int }
      (** a tiny direct-mapped L0 in front of the I-cache, Kin et
          al. [11] — saves energy but adds fetch latency on L0 misses *)

type t = {
  icache : Wp_cache.Geometry.t;
  dcache : Wp_cache.Geometry.t;
  replacement : Wp_cache.Replacement.t;
  itlb_entries : int;
  dtlb_entries : int;
  page_bytes : int;
  memory_latency : int;  (** cycles for a line refill *)
  tlb_walk_latency : int;  (** cycles for a hardware page walk *)
  btb_entries : int;
  mispredict_penalty : int;
  energy : Wp_energy.Params.t;
  scheme : scheme;
  same_line_elision : bool;
      (** tag-check elision for sequential same-line fetches — a
          property of the XScale fetch path shared by every scheme,
          including the baseline (ablation switch) *)
  memo_invalidation : Wp_cache.Way_memo.invalidation;
      (** link-invalidation policy for the way-memoization comparator;
          {!Wp_cache.Way_memo.Flash_clear} is the implementable
          hardware, {!Wp_cache.Way_memo.Precise} the idealised ablation *)
  leakage_enabled : bool;
      (** account I-cache leakage energy (off by default: the paper's
          evaluation is dynamic-energy only; Section 7 discusses
          combining way-placement with leakage schemes) *)
  drowsy_window_fetches : int option;
      (** put lines to sleep after this many fetches without a touch
          (Flautner et al.); requires [leakage_enabled], supported for
          the baseline and way-placement schemes *)
}

val xscale : scheme -> t
(** The paper's baseline machine: 32 KB 32-way 32 B I- and D-caches,
    32-entry fully associative TLBs, 1 KB pages, 50-cycle memory. *)

val with_icache : t -> Wp_cache.Geometry.t -> t
val with_replacement : t -> Wp_cache.Replacement.t -> t
val with_scheme : t -> scheme -> t
val with_energy : t -> Wp_energy.Params.t -> t
val with_same_line_elision : t -> bool -> t
val with_memo_invalidation : t -> Wp_cache.Way_memo.invalidation -> t
val with_leakage : t -> bool -> t
val with_drowsy : t -> int option -> t

val validate : t -> (unit, string) result
(** Way-placement area must be positive and a multiple of the page
    size (paper Section 4.1); cache and TLB parameters must be
    self-consistent. *)

val digest : t -> Digest.t
(** A digest of every field: equal for structurally equal configs,
    whatever their physical sharing.  The sweep memo key and the
    snapshot-cache scope are built from it. *)

val scheme_name : scheme -> string
val pp : Format.formatter -> t -> unit
