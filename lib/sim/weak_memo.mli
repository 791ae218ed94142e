(** A small memo keyed weakly on a physical value.

    An entry is found by the physical identity of its key plus a
    structurally compared parameter.  Keys are held weakly and an
    entry's value lives only as long as its key, so memoising results
    of generated inputs (the fuzz corpus) accumulates nothing.  The
    table has a fixed number of slots, reused round-robin.  Lookups and
    inserts are mutex-guarded; the computation runs outside the lock. *)

type ('k, 'p, 'v) t

val create : int -> ('k, 'p, 'v) t
(** [create n]: a memo of [n > 0] slots. *)

val memo : ('k, 'p, 'v) t -> 'k -> 'p -> (unit -> 'v) -> 'v
(** [memo t key param compute] returns the value stored for [key]
    (physically) and [param] (structurally), or runs [compute], stores
    and returns its result.  Domains racing on one missing entry may
    each compute it; the first insert wins and every caller gets that
    value.  If [compute] raises, nothing is stored. *)
