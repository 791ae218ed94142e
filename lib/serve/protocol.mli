(** The placement service's wire vocabulary.

    One request or response per line, each a single JSON object built
    on {!Wp_sim.Report}'s hand-rolled emitter and parsed back with
    {!Wp_sim.Report.parse} — the service-level counterpart of the
    sweep CLI's [--json] output.  Requests name a benchmark and a
    machine configuration; responses carry a compact result summary
    plus the MD5 of the marshalled {!Wp_sim.Stats.t}, so a client can
    assert bit-identity against a locally computed oracle without
    shipping every counter as text.

    Every decoder returns a clean [Error] on malformed input —
    truncated JSON, wrong field types, unknown discriminators — and
    never raises: the daemon feeds it raw client bytes. *)

(** Where the daemon listens / the client connects. *)
type endpoint =
  | Unix_socket of string  (** filesystem path *)
  | Tcp of string * int  (** host, port (0 = kernel-chosen) *)

val endpoint_to_string : endpoint -> string
val sockaddr_of_endpoint : endpoint -> (Unix.sockaddr, string) result

(** {1 Requests} *)

type sim_request = {
  benchmark : string;  (** MiBench name, {!Wp_workloads.Mibench.find} *)
  scheme : Wp_sim.Config.scheme;
  size_kb : int;  (** I-cache size *)
  ways : int;  (** I-cache associativity *)
  line_bytes : int;
  no_cache : bool;
      (** bypass the result store and in-flight coalescing: always run
          the simulator (the result is still stored) *)
  verify : bool;
      (** after computing, replay through the per-instruction
          reference loop and fail the request unless bit-identical —
          the differ's fast-path check as a service option.  Only
          computations triggered by this request are verified; a
          store hit or coalesced result is returned as-is. *)
}

val sim_request :
  ?size_kb:int ->
  ?ways:int ->
  ?line_bytes:int ->
  ?no_cache:bool ->
  ?verify:bool ->
  benchmark:string ->
  scheme:Wp_sim.Config.scheme ->
  unit ->
  sim_request
(** Defaults: the paper's 32 KB / 32-way / 32 B geometry, caching on,
    verification off. *)

type mp_request = {
  mp_mix : string;
      (** comma-separated MiBench names, or ["random:SEED"] for a
          {!Wp_check.Progen.mix_of_seed} mix — the daemon resolves it
          and content-addresses the result on the fully resolved
          (mix, config, options) triple *)
  mp_coverage : string;
      (** ["all"], ["half"], ["none"], or ["mix"] (keep the mix's own
          placement flags) *)
  mp_quantum : int;  (** time slice in cycles; [<= 0] = infinite *)
  mp_kernel : bool;  (** run the interrupt kernel at switches *)
  mp_btb_flush : bool;
  mp_drowsy_flush : bool;
  mp_priority : bool;  (** priority scheduler instead of round-robin *)
  mp_scheme : Wp_sim.Config.scheme;
  mp_size_kb : int;
  mp_ways : int;
  mp_line_bytes : int;
  mp_no_cache : bool;
  mp_verify : bool;
      (** after computing, replay through the mp reference loop and
          fail unless bit-identical *)
}

val mp_request :
  ?coverage:string ->
  ?quantum:int ->
  ?kernel:bool ->
  ?btb_flush:bool ->
  ?drowsy_flush:bool ->
  ?priority:bool ->
  ?size_kb:int ->
  ?ways:int ->
  ?line_bytes:int ->
  ?no_cache:bool ->
  ?verify:bool ->
  mix:string ->
  scheme:Wp_sim.Config.scheme ->
  unit ->
  mp_request
(** Defaults: the mix's own coverage, 50k-cycle quantum, kernel on,
    shared BTB and drowsy state, round-robin, the paper geometry. *)

type advise_request = {
  ad_benchmark : string;  (** MiBench name, {!Wp_workloads.Mibench.find} *)
  ad_size_kb : int;
  ad_ways : int;
  ad_line_bytes : int;
  ad_area_kb : int;  (** way-placement area the advisor verifies *)
  ad_page_bytes : int;
  ad_no_cache : bool;
      (** bypass the in-memory result cache and coalescing: always
          re-run the analysis (the result still replaces the cached
          one) *)
}

val advise_request :
  ?size_kb:int ->
  ?ways:int ->
  ?line_bytes:int ->
  ?area_kb:int ->
  ?page_bytes:int ->
  ?no_cache:bool ->
  benchmark:string ->
  unit ->
  advise_request
(** Defaults: the paper geometry, a 16 KB area, 1 KB pages, caching
    on. *)

type grid_request = {
  g_benchmarks : string list;  (** MiBench names *)
  g_schemes : Wp_sim.Config.scheme list;
  g_sizes_kb : int list;
  g_ways : int list;
  g_line_bytes : int;  (** shared by every cell *)
  g_no_cache : bool;  (** bypass the store for every cell *)
}
(** A whole sweep grid in one request: the cross product
    [benchmarks x schemes x sizes_kb x ways], executed server-side on
    the sweep machinery — shared prepared benchmarks (one compile and
    trace per benchmark) and the daemon-wide snapshot cache
    ({!Wp_sim.Snapshot_cache}), so converged loop iterations recorded
    for one cell fast-forward every other cell whose fingerprints
    coincide.  Each cell is content-addressed in the store exactly
    like a standalone [Sim] request — a repeated grid is all store
    hits.  Cells stream back as they complete (many replies share the
    request id), terminated by a {!grid_summary}. *)

val grid_request :
  ?sizes_kb:int list ->
  ?ways:int list ->
  ?line_bytes:int ->
  ?no_cache:bool ->
  benchmarks:string list ->
  schemes:Wp_sim.Config.scheme list ->
  unit ->
  grid_request
(** Defaults: the paper's 32 KB / 32-way / 32 B geometry as a
    one-point size/ways grid, caching on. *)

val grid_cells :
  grid_request -> (string * Wp_sim.Config.scheme * int * int) list
(** The grid's cells [(benchmark, scheme, size_kb, ways)] in canonical
    order — benchmark-major, then scheme, size, ways.  A cell's
    position in this list is its {!grid_cell.gc_index}. *)

type payload =
  | Ping
  | Server_stats  (** counters since startup *)
  | Shutdown  (** begin a graceful stop: drain, then exit *)
  | Sim of sim_request
  | Mp of mp_request
  | Advise of advise_request
      (** run the static placement advisor
          ({!Wp_advise.Advisor.analyze}) — pure analysis, no
          simulation *)
  | Grid of grid_request
      (** a batched sweep: one request, one streamed reply per cell
          plus a terminal summary *)

type request = { id : int; payload : payload }
(** [id] is echoed verbatim in the response — requests may be
    pipelined and answered out of order. *)

val config_of_sim : sim_request -> (Wp_sim.Config.t, string) result
(** The {!Wp_sim.Config.t} the request describes (geometry errors and
    {!Wp_sim.Config.validate} failures reported as [Error]). *)

val config_of_mp : mp_request -> (Wp_sim.Config.t, string) result
(** Same, for the machine an mp request describes. *)

val config_of_geometry :
  scheme:Wp_sim.Config.scheme ->
  size_kb:int ->
  ways:int ->
  line_bytes:int ->
  (Wp_sim.Config.t, string) result
(** The building block under both: one grid cell's configuration. *)

val scheme_to_string : Wp_sim.Config.scheme -> string
(** The wire name: baseline, wayplace, waymemo, waypred or filter. *)

(** {1 Responses} *)

(** How a result was obtained. *)
type source =
  | Computed  (** this request ran the simulator *)
  | Memory  (** hot in-memory store hit *)
  | Disk  (** persisted store hit (now promoted to memory) *)
  | Coalesced  (** deduplicated onto another request's computation *)

val source_name : source -> string

type sim_result = {
  key : string;  (** content address of the (program, layout, config) *)
  source : source;
  digest : string;  (** MD5 hex of the marshalled {!Wp_sim.Stats.t} *)
  cycles : int;
  retired : int;
  fetches : int;
  icache_hits : int;
  icache_misses : int;
  icache_energy_pj : float;
  total_energy_pj : float;
}

val sim_result_of_stats :
  key:string -> source:source -> Wp_sim.Stats.t -> sim_result

type mp_result = {
  mpr_key : string;  (** content address of (mix, config, options) *)
  mpr_source : source;
  mpr_digest : string;  (** MD5 hex of the marshalled aggregate stats *)
  mpr_cycles : int;
  mpr_retired : int;
  mpr_processes : int;
  mpr_switches : int;  (** dispatches that changed the running process *)
  mpr_kernel_runs : int;
  mpr_icache_energy_pj : float;
  mpr_total_energy_pj : float;
}

val mp_result_of_stats :
  key:string ->
  source:source ->
  processes:int ->
  switches:int ->
  kernel_runs:int ->
  Wp_sim.Stats.t ->
  mp_result

type advise_result = {
  adr_key : string;
      (** content address of the (benchmark, geometry, area, page)
          inputs, ["advise-"]-prefixed *)
  adr_source : source;
  adr_digest : string;
      (** MD5 hex of the full marshalled {!Wp_advise.Advisor.t}, so a
          client can assert bit-identity against a locally computed
          report *)
  adr_static_min_ways : int;
  adr_min_area_bytes : int;
      (** {!Wp_advise.Oracle.area_for} the static bound *)
  adr_regions : int;
  adr_findings : int;
  adr_errors : int;
  adr_warnings : int;
  adr_schedule_points : int;
  adr_conflict_misses : int;  (** witnessed by the designated-way replay *)
  adr_env_lo_pj : float;
  adr_env_hi_pj : float;
  adr_predicted_delta_pj : float;
      (** [0.0] when the greedy search found no better order *)
}

val advise_result_of_report :
  key:string -> source:source -> Wp_advise.Advisor.t -> advise_result

type grid_cell = {
  gc_index : int;  (** position in {!grid_cells} order *)
  gc_benchmark : string;
  gc_scheme : Wp_sim.Config.scheme;
  gc_size_kb : int;
  gc_ways : int;
  gc_outcome : (sim_result, string) result;
      (** per-cell: one bad geometry or crashed computation fails that
          cell, not the grid *)
}
(** One streamed cell of a {!grid_request}.  Cells arrive in
    completion order, not index order — the echoed coordinates say
    what arrived. *)

type grid_summary = {
  gs_cells : int;
  gs_computed : int;
  gs_hits_memory : int;
  gs_hits_disk : int;
  gs_coalesced : int;
  gs_errors : int;
}
(** The terminal reply of a grid: how many cells there were and how
    each was sourced.  [gs_computed + gs_hits_memory + gs_hits_disk +
    gs_coalesced + gs_errors = gs_cells]. *)

type server_stats = {
  requests : int;  (** lines accepted (including malformed ones) *)
  sim_requests : int;
  computations : int;  (** simulator runs — the memoisation counter *)
  hits_memory : int;
  hits_disk : int;
  coalesced : int;
  errors : int;  (** requests answered with an error reply *)
  store_entries : int;  (** hot in-memory entries *)
  inflight : int;  (** keys currently being computed *)
  workers : int;  (** executor domains *)
  uptime_s : float;
}

type reply =
  | Pong
  | Stats_reply of server_stats
  | Shutting_down
  | Sim_reply of sim_result
  | Mp_reply of mp_result
  | Advise_reply of advise_result
  | Grid_cell_reply of grid_cell
      (** one cell of a [Grid] request, streamed on completion; the
          terminal {!grid_summary} always follows the last cell *)
  | Grid_done of grid_summary
  | Error_reply of string
      (** per-request failure: malformed request, unknown benchmark,
          invalid configuration, or a crashed computation — the
          connection and the daemon keep going *)

type response = { id : int; reply : reply }

(** {1 Wire encoding} *)

val request_to_json : request -> Wp_sim.Report.json
val request_of_json : Wp_sim.Report.json -> (request, string) result
val response_to_json : response -> Wp_sim.Report.json
val response_of_json : Wp_sim.Report.json -> (response, string) result

val request_to_line : request -> string
(** Compact JSON plus the terminating newline. *)

val response_to_line : response -> string

val request_of_line : string -> (request, string) result
(** Parse then decode; both failure modes are the same clean
    [Error]. *)

val response_of_line : string -> (response, string) result

val id_of_line : string -> int
(** Best-effort extraction of the [id] of a line that failed to
    decode, so error replies can still be correlated; [0] when even
    that is unrecoverable. *)
