(** The placement service: a long-running daemon answering simulation
    requests over a Unix or TCP socket.

    Layering:

    - connections are handled by lightweight threads (a reader and a
      writer each), so thousands of concurrent requests cost two
      threads per {e connection}, not per request;
    - simulations are scheduled on a persistent
      {!Wp_sim.Sweep.Pool.Executor} domain pool;
    - one job pipeline serves every request kind: a [Sim] request,
      each cell of a [Grid], an [Mp] mix and an [Advise] query become
      a job (content address, compute, optional reference-loop
      verification) resolved by the same code — a lookup in the
      content-addressed {!Store} (hot memory + optional disk
      persistence), then coalescing of {e in-flight} identical jobs
      onto one computation through a single in-flight table (the
      sweep engine's shared-baseline dedup generalised to live
      traffic), then the executor.  The store holds every kind's full
      result, so mp and advise answers survive a restart exactly like
      sims;
    - per-request error isolation: a malformed line, unknown
      benchmark, invalid configuration or crashing computation answers
      that request with {!Protocol.Error_reply} and nothing else —
      the connection stays up, the daemon stays up.  A request line
      longer than a fixed cap (1 MiB, far above any legitimate
      request) is answered with an error and ends that connection
      only, so a peer that never sends a newline cannot grow the
      daemon's memory.

    Graceful shutdown (a [shutdown] request, or {!stop}): the listener
    closes immediately, connected clients keep being served until they
    disconnect, and the executor drains every accepted computation
    before {!run} returns — a shutdown mid-burst loses no accepted
    request. *)

type t

val create :
  ?workers:int ->
  ?store_dir:string ->
  endpoint:Protocol.endpoint ->
  unit ->
  (t, string) result
(** Bind and listen (but do not accept yet).  [workers] sizes the
    executor domain pool (default
    [Domain.recommended_domain_count ()]); [store_dir] enables disk
    persistence.  A Unix-socket path is unlinked first if a stale one
    exists; [Tcp (host, 0)] binds a kernel-chosen port, readable back
    via {!endpoint}. *)

val endpoint : t -> Protocol.endpoint
(** The actual listening endpoint (TCP port resolved). *)

val run : t -> unit
(** Serve until a graceful stop completes: accept loop, then drain.
    Blocks the calling thread; returns only when the listener is
    closed, every connection has ended and the executor has drained. *)

val start : t -> Thread.t
(** [Thread.create run t] — the in-process way to host a daemon
    (tests, the loadtest self-spawn). *)

val stop : t -> unit
(** Initiate a graceful stop from any thread; idempotent.  {!run}
    still waits for connected clients to disconnect. *)

val computations : t -> int
(** Computations (sim, mp and advise runs) so far — the counter the
    O(1)-warm-repeat acceptance test reads. *)

val server_stats : t -> Protocol.server_stats
