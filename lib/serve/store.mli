(** Content-addressed result store: the daemon's memoisation table.

    One store holds one value type ['v] — the daemon stores a single
    variant covering its sim, mp and advise results — in a hot
    in-memory table and, when the store was created with a directory,
    on disk so results survive restarts.

    Keys are content addresses: a lowercase kind, a dash, then the MD5
    hex of the request's complete input ({!sim_address},
    {!mp_address}, {!advise_address}), never a benchmark's {e name}
    alone, so a regenerated program or a different layout can never
    alias a stale entry.  Every address is built on
    {!Wp_sim.Config.digest}, so structurally equal configs share a key
    whatever their physical sharing.

    The disk format is defensive: a magic header, the payload digest,
    then the marshalled value, written to a temporary file in the same
    directory and [rename]d into place — atomic on POSIX, so two
    daemons pointed at the same directory never clobber each other
    into a torn entry.  A corrupt, truncated or zero-length entry is
    detected on load, evicted (unlinked), and reported as a miss: the
    daemon recomputes instead of serving garbage.  The magic changes
    with the payload type ([wpstore2] since results of every request
    kind share one value type), so an entry of an older format is
    evicted, never misread.  Entries of the [wpstore1] format sit under
    unprefixed names that no key produces any more: they are orphaned
    and never read.  The payload carries no type witness beyond the
    magic, so a directory must only ever be used at one value type.

    All operations are thread- and domain-safe. *)

type 'v t

val create : ?dir:string -> unit -> ('v t, string) result
(** Memory-only without [dir]; with it, the directory is created if
    missing (one level) and entries persist there.  [Error] if the
    directory cannot be created or is not writable. *)

val code_digest : Wp_sim.Runner.prepared -> Wp_sim.Config.t -> Digest.t
(** The digest of the program and of the block order of the layout
    the config runs ({!Wp_sim.Runner.layout_for}): the per-benchmark
    half of a sim or advise address.  It marshals the whole program
    (about a millisecond on the larger benchmarks), so callers memoise
    it per (benchmark, layout). *)

val sim_address : code:Digest.t -> Wp_sim.Config.t -> string
(** ["sim-"] + digest of the code digest and the config. *)

val mp_address :
  Wp_mp.Mix.t -> Wp_sim.Config.t -> Wp_mp.Machine.options -> string
(** ["mp-"] + digest of the resolved mix (specs, placement flags,
    priorities), the scheduler options and the config: everything a
    multiprogrammed run depends on. *)

val advise_address :
  code:Digest.t -> benchmark:string -> page_bytes:int -> Wp_sim.Config.t -> string
(** ["advise-"] + digest of the code digest of the placed layout, the
    config carrying the analysed geometry and area, the page size and
    the benchmark name the report records. *)

val stats_digest : Wp_sim.Stats.t -> string
(** MD5 hex of the marshalled stats — the bit-identity token carried
    in protocol responses. *)

val find : 'v t -> string -> ('v * [ `Memory | `Disk ]) option
(** Memory first, then disk; a disk hit is promoted into memory.
    Distinct calls that hit memory return the {e same} value — callers
    must not mutate it. *)

val put : 'v t -> string -> 'v -> unit
(** Record into memory and (if persistent) to disk.  An existing disk
    entry is left alone — the store is content-addressed, so it can
    only hold the same bytes.  Disk write failures degrade silently to
    a memory-only entry (counted in {!write_failures}): persistence is
    an optimisation, never a correctness requirement. *)

val memory_entries : 'v t -> int
val disk_entries : 'v t -> int
(** Entries currently persisted ([0] for a memory-only store). *)

val evictions : 'v t -> int
(** Corrupt / truncated disk entries detected and removed so far. *)

val write_failures : 'v t -> int
