(** The 23 MiBench benchmarks of the paper's evaluation (Section 5).

    Each specification mirrors the corresponding MiBench program's
    observable fetch behaviour: static code size, loop structure, hot
    working-set size, call-graph shape and memory intensity.  The
    excluded programs (lame, mad, typeset, ghostscript, gsm — rejected
    by the authors' gcc; basicmath, qsort, dijkstra, stringsearch —
    inconsistent train/test programs) are likewise omitted here. *)

val all : Spec.t list
(** In the order of the paper's Figure 4 x-axis. *)

val names : string list

val loops : Spec.t list
(** Loop-dominated long-trip-count variants ([crc_loop], [adpcm_loop],
    [sha_loop]): pure-compute kernels (no data accesses) with chunky
    bodies in tight single-level loops — long periodic trace regions
    the steady-state fast-forward engine can skip.  Not part of {!all}
    (they are perf/fast-forward fixtures, not paper benchmarks). *)

val loop_names : string list

val find : string -> Spec.t
(** Looks up {!all} and {!loops} by name.
    @raise Not_found for an unknown name. *)

val select : string -> (string list, string) result
(** A benchmark list as the front ends spell it: ["all"] for {!names},
    or comma-separated names (trimmed; loop variants allowed), each
    checked with {!find}.  The error names the first unknown one. *)

val tiny : Spec.t
(** A miniature benchmark for unit tests and the quickstart example:
    runs in milliseconds. *)
