(** The data-memory side: D-cache and D-TLB.

    Kept identical across all schemes (the paper varies only the
    instruction cache); it exists so that cycle counts and total-energy
    figures (the ED product) include a realistic data side.  Stores are
    modelled write-through with no write-back accounting — a
    simplification that cancels out of every normalised metric. *)

type t

val create : ?probe:Wp_obs.Probe.t -> ?sampler:Wp_obs.Sampler.t -> Config.t -> t
(** [probe] observes one [Dcache_access] event per access plus
    [Dtlb_miss] events; [sampler] has the accesses counted into it
    directly.  Pure observation; at most one of the two may be
    given. *)

(** {2 One access, in two halves}

    An access is {!lookup} followed by {!charge}.  [lookup] is the
    machine state: it reads and updates only the D-TLB and the D-cache,
    so its result is a function of the address sequence and of the
    fields that shape those two structures — [dcache], [replacement],
    [dtlb_entries] and [page_bytes].  [charge] is the accounting: it
    reads the outcome and this data side's latencies, energy constants
    and observer, and touches no cache or TLB state.  A run may
    therefore replay a recorded sequence of outcomes through [charge]
    alone, against any configuration that agrees on those four fields,
    and get the same counters, energy, events and stalls as the live
    accesses would have. *)

val lookup : t -> Wp_isa.Addr.t -> int
(** The D-TLB lookup, the D-cache lookup and, on a miss, the line fill.
    Returns the outcome: bit 0 set on a D-TLB miss, bit 1 set on a
    D-cache miss.  Charges nothing and emits nothing. *)

val charge : t -> Stats.t -> int -> int
(** [charge t stats outcome] accounts one access with the given
    {!lookup} outcome: the D-side counters, the [dcache] and [memory]
    energy, the observer's [Dtlb_miss]/[Dcache_access] events (or
    sampler counts), in the order a live access makes them.  Returns
    the pipeline stall in cycles. *)

val access : t -> Stats.t -> Wp_isa.Addr.t -> write:bool -> int
(** [charge t stats (lookup t addr)]: perform the access, charge
    D-cache/D-TLB/memory energy and update counters; returns the
    pipeline stall in cycles. *)

val stall_bound : t -> int
(** A static upper bound on the stall {!access} can return: a D-TLB
    walk plus a miss to memory. *)

val flush : t -> unit

val flush_tlb : t -> unit
(** Invalidate only the D-TLB (context-switch shootdown on an
    ASID-less core); D-cache contents are physical and survive. *)

val fingerprint : t -> add:(int -> unit) -> unit
(** Canonical state fingerprint (D-cache + D-TLB) for the steady-state
    fast-forward detector. *)
