module Report = Wp_sim.Report
module Config = Wp_sim.Config
module Stats = Wp_sim.Stats

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_endpoint = function
  | Unix_socket path ->
      if String.length path = 0 then Error "empty unix socket path"
      else if String.length path > 100 then
        Error (Printf.sprintf "unix socket path too long (%d bytes)" (String.length path))
      else Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      if port < 0 || port > 0xffff then
        Error (Printf.sprintf "bad TCP port %d" port)
      else
        match Unix.inet_addr_of_string host with
        | addr -> Ok (Unix.ADDR_INET (addr, port))
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                Error (Printf.sprintf "host %S has no address" host)
            | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port))
            | exception Not_found -> Error (Printf.sprintf "unknown host %S" host)))

(* --- requests ------------------------------------------------------- *)

type sim_request = {
  benchmark : string;
  scheme : Config.scheme;
  size_kb : int;
  ways : int;
  line_bytes : int;
  no_cache : bool;
  verify : bool;
}

let sim_request ?(size_kb = 32) ?(ways = 32) ?(line_bytes = 32)
    ?(no_cache = false) ?(verify = false) ~benchmark ~scheme () =
  { benchmark; scheme; size_kb; ways; line_bytes; no_cache; verify }

(* A multiprogrammed run: the mix is wire-encoded as the same compact
   string the CLI accepts — comma-separated MiBench names, or
   "random:SEED" for a Progen mix — so the request stays one JSON
   line; the daemon resolves it and content-addresses the result on
   the fully resolved (mix, machine config, scheduler options)
   triple. *)
type mp_request = {
  mp_mix : string;
  mp_coverage : string;  (** all | half | none | mix *)
  mp_quantum : int;  (** cycles; [<= 0] = infinite *)
  mp_kernel : bool;
  mp_btb_flush : bool;
  mp_drowsy_flush : bool;
  mp_priority : bool;
  mp_scheme : Config.scheme;
  mp_size_kb : int;
  mp_ways : int;
  mp_line_bytes : int;
  mp_no_cache : bool;
  mp_verify : bool;
}

let mp_request ?(coverage = "mix") ?(quantum = 50_000) ?(kernel = true)
    ?(btb_flush = false) ?(drowsy_flush = false) ?(priority = false)
    ?(size_kb = 32) ?(ways = 32) ?(line_bytes = 32) ?(no_cache = false)
    ?(verify = false) ~mix ~scheme () =
  {
    mp_mix = mix;
    mp_coverage = coverage;
    mp_quantum = quantum;
    mp_kernel = kernel;
    mp_btb_flush = btb_flush;
    mp_drowsy_flush = drowsy_flush;
    mp_priority = priority;
    mp_scheme = scheme;
    mp_size_kb = size_kb;
    mp_ways = ways;
    mp_line_bytes = line_bytes;
    mp_no_cache = no_cache;
    mp_verify = verify;
  }

(* A static-advisor run: pure analysis (no simulation), so the result
   is a compact summary the daemon memoises in memory, keyed like [mp]
   on the fully resolved inputs. *)
type advise_request = {
  ad_benchmark : string;
  ad_size_kb : int;
  ad_ways : int;
  ad_line_bytes : int;
  ad_area_kb : int;
  ad_page_bytes : int;
  ad_no_cache : bool;
}

let advise_request ?(size_kb = 32) ?(ways = 32) ?(line_bytes = 32)
    ?(area_kb = 16) ?(page_bytes = 1024) ?(no_cache = false) ~benchmark () =
  {
    ad_benchmark = benchmark;
    ad_size_kb = size_kb;
    ad_ways = ways;
    ad_line_bytes = line_bytes;
    ad_area_kb = area_kb;
    ad_page_bytes = page_bytes;
    ad_no_cache = no_cache;
  }

(* A whole sweep grid in one request: the cross product of benchmarks,
   schemes and geometries, executed server-side on the sweep machinery
   — shared prepared benchmarks (compiled traces) and the daemon-wide
   snapshot cache — with each cell content-addressed in the store
   exactly like a standalone [Sim] request.  Cells stream back as they
   complete, many replies sharing the request id, terminated by a
   [Grid_done] summary. *)
type grid_request = {
  g_benchmarks : string list;
  g_schemes : Config.scheme list;
  g_sizes_kb : int list;
  g_ways : int list;
  g_line_bytes : int;
  g_no_cache : bool;
}

let grid_request ?(sizes_kb = [ 32 ]) ?(ways = [ 32 ]) ?(line_bytes = 32)
    ?(no_cache = false) ~benchmarks ~schemes () =
  {
    g_benchmarks = benchmarks;
    g_schemes = schemes;
    g_sizes_kb = sizes_kb;
    g_ways = ways;
    g_line_bytes = line_bytes;
    g_no_cache = no_cache;
  }

(* The canonical cell order — benchmark-major, then scheme, size,
   ways — shared by the daemon (which numbers the streamed cells) and
   any client reassembling the grid. *)
let grid_cells gr =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun s ->
          List.concat_map
            (fun kb -> List.map (fun w -> (b, s, kb, w)) gr.g_ways)
            gr.g_sizes_kb)
        gr.g_schemes)
    gr.g_benchmarks

type payload =
  | Ping
  | Server_stats
  | Shutdown
  | Sim of sim_request
  | Mp of mp_request
  | Advise of advise_request
  | Grid of grid_request

type request = { id : int; payload : payload }

let config_of_geometry ~scheme ~size_kb ~ways ~line_bytes =
  match
    Wp_cache.Geometry.make ~size_bytes:(size_kb * 1024) ~assoc:ways ~line_bytes
  with
  | exception Invalid_argument msg -> Error msg
  | geometry -> (
      let config = Config.with_icache (Config.xscale scheme) geometry in
      match Config.validate config with
      | Ok () -> Ok config
      | Error msg -> Error msg)

let config_of_sim sr =
  config_of_geometry ~scheme:sr.scheme ~size_kb:sr.size_kb ~ways:sr.ways
    ~line_bytes:sr.line_bytes

let config_of_mp mr =
  config_of_geometry ~scheme:mr.mp_scheme ~size_kb:mr.mp_size_kb
    ~ways:mr.mp_ways ~line_bytes:mr.mp_line_bytes

let scheme_to_string = function
  | Config.Baseline -> "baseline"
  | Config.Way_placement _ -> "wayplace"
  | Config.Way_memoization -> "waymemo"
  | Config.Way_prediction -> "waypred"
  | Config.Filter_cache _ -> "filter"

(* A scheme as a standalone object — the element encoding grid scheme
   lists use; [scheme_of_json] reads it back (it looks the "scheme"
   discriminator and the optional parameter fields up by name). *)
let scheme_to_json s =
  let fields =
    match s with
    | Config.Way_placement { area_bytes } ->
        [ ("area_bytes", Report.Jint area_bytes) ]
    | Config.Filter_cache { l0_bytes } -> [ ("l0_bytes", Report.Jint l0_bytes) ]
    | Config.Baseline | Config.Way_memoization | Config.Way_prediction -> []
  in
  Report.Jobj (("scheme", Report.Jstring (scheme_to_string s)) :: fields)

(* --- responses ------------------------------------------------------ *)

type source = Computed | Memory | Disk | Coalesced

let source_name = function
  | Computed -> "computed"
  | Memory -> "memory"
  | Disk -> "disk"
  | Coalesced -> "coalesced"

let source_of_name = function
  | "computed" -> Some Computed
  | "memory" -> Some Memory
  | "disk" -> Some Disk
  | "coalesced" -> Some Coalesced
  | _ -> None

type sim_result = {
  key : string;
  source : source;
  digest : string;
  cycles : int;
  retired : int;
  fetches : int;
  icache_hits : int;
  icache_misses : int;
  icache_energy_pj : float;
  total_energy_pj : float;
}

let sim_result_of_stats ~key ~source (stats : Stats.t) =
  {
    key;
    source;
    digest = Digest.to_hex (Digest.string (Marshal.to_string stats []));
    cycles = stats.Stats.cycles;
    retired = stats.Stats.retired_instrs;
    fetches = stats.Stats.fetches;
    icache_hits = stats.Stats.icache_hits;
    icache_misses = stats.Stats.icache_misses;
    icache_energy_pj = Stats.icache_energy_pj stats;
    total_energy_pj = Stats.total_energy_pj stats;
  }

(* The multiprogrammed counterpart of [sim_result], with the
   machine-level switch and kernel-run counts of the run. *)
type mp_result = {
  mpr_key : string;
  mpr_source : source;
  mpr_digest : string;
  mpr_cycles : int;
  mpr_retired : int;
  mpr_processes : int;
  mpr_switches : int;
  mpr_kernel_runs : int;
  mpr_icache_energy_pj : float;
  mpr_total_energy_pj : float;
}

let mp_result_of_stats ~key ~source ~processes ~switches ~kernel_runs
    (stats : Stats.t) =
  {
    mpr_key = key;
    mpr_source = source;
    mpr_digest = Digest.to_hex (Digest.string (Marshal.to_string stats []));
    mpr_cycles = stats.Stats.cycles;
    mpr_retired = stats.Stats.retired_instrs;
    mpr_processes = processes;
    mpr_switches = switches;
    mpr_kernel_runs = kernel_runs;
    mpr_icache_energy_pj = Stats.icache_energy_pj stats;
    mpr_total_energy_pj = Stats.total_energy_pj stats;
  }

(* The advisor report boiled down to the numbers a remote caller keys
   decisions on; the digest is the MD5 of the full marshalled report,
   so a client can assert the daemon's analysis is bit-identical to a
   locally computed one. *)
type advise_result = {
  adr_key : string;
  adr_source : source;
  adr_digest : string;
  adr_static_min_ways : int;
  adr_min_area_bytes : int;
  adr_regions : int;
  adr_findings : int;
  adr_errors : int;
  adr_warnings : int;
  adr_schedule_points : int;
  adr_conflict_misses : int;
  adr_env_lo_pj : float;
  adr_env_hi_pj : float;
  adr_predicted_delta_pj : float;
}

let advise_result_of_report ~key ~source (r : Wp_advise.Advisor.t) =
  {
    adr_key = key;
    adr_source = source;
    adr_digest = Digest.to_hex (Digest.string (Marshal.to_string r []));
    adr_static_min_ways = r.Wp_advise.Advisor.static_min_ways;
    adr_min_area_bytes =
      Wp_advise.Oracle.area_for ~geometry:r.Wp_advise.Advisor.geometry
        ~page_bytes:r.Wp_advise.Advisor.page_bytes
        ~ways:r.Wp_advise.Advisor.static_min_ways;
    adr_regions = List.length r.Wp_advise.Advisor.regions;
    adr_findings = List.length r.Wp_advise.Advisor.findings;
    adr_errors =
      List.length (Wp_lint.Finding.errors r.Wp_advise.Advisor.findings);
    adr_warnings =
      List.length (Wp_lint.Finding.warnings r.Wp_advise.Advisor.findings);
    adr_schedule_points = List.length r.Wp_advise.Advisor.schedule;
    adr_conflict_misses =
      r.Wp_advise.Advisor.replay.Wp_advise.Oracle.area_misses
      - r.Wp_advise.Advisor.replay.Wp_advise.Oracle.area_distinct_lines;
    adr_env_lo_pj =
      r.Wp_advise.Advisor.envelope.Wp_advise.Oracle.env_lo_pj;
    adr_env_hi_pj =
      r.Wp_advise.Advisor.envelope.Wp_advise.Oracle.env_hi_pj;
    adr_predicted_delta_pj =
      (match r.Wp_advise.Advisor.improvement with
      | None -> 0.0
      | Some i -> i.Wp_advise.Advisor.predicted_delta_pj);
  }

(* One streamed grid cell.  The coordinates are echoed so a client
   need not recompute [grid_cells] to know what arrived; the outcome
   is per-cell — one bad geometry or a crashed computation fails that
   cell, not the grid. *)
type grid_cell = {
  gc_index : int;
  gc_benchmark : string;
  gc_scheme : Config.scheme;
  gc_size_kb : int;
  gc_ways : int;
  gc_outcome : (sim_result, string) result;
}

type grid_summary = {
  gs_cells : int;
  gs_computed : int;
  gs_hits_memory : int;
  gs_hits_disk : int;
  gs_coalesced : int;
  gs_errors : int;
}

type server_stats = {
  requests : int;
  sim_requests : int;
  computations : int;
  hits_memory : int;
  hits_disk : int;
  coalesced : int;
  errors : int;
  store_entries : int;
  inflight : int;
  workers : int;
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
  | Grid_done of grid_summary
  | Error_reply of string

type response = { id : int; reply : reply }

(* --- decoding helpers ----------------------------------------------- *)

let ( let* ) = Result.bind

(* A required typed field: absence and a type mismatch are distinct,
   deliberate error messages — the test battery asserts both. *)
let field name conv j =
  match Report.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let field_default name conv ~default j =
  match Report.member name j with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

(* A required, non-empty JSON array whose elements decode with [conv]
   (itself result-valued, so scheme objects thread their own
   errors). *)
let field_list name conv j =
  match Report.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match Report.to_list v with
      | None -> Error (Printf.sprintf "field %S has the wrong type" name)
      | Some [] -> Error (Printf.sprintf "field %S is empty" name)
      | Some items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | x :: rest -> (
                match conv x with
                | Ok y -> go (y :: acc) rest
                | Error _ as e -> e)
          in
          go [] items)

let elem name conv x =
  match conv x with
  | Some v -> Ok v
  | None ->
      Error (Printf.sprintf "field %S has an element of the wrong type" name)

(* --- request encoding ----------------------------------------------- *)

let request_to_json { id; payload } =
  let base = [ ("id", Report.Jint id) ] in
  match payload with
  | Ping -> Report.Jobj (base @ [ ("op", Report.Jstring "ping") ])
  | Server_stats -> Report.Jobj (base @ [ ("op", Report.Jstring "stats") ])
  | Shutdown -> Report.Jobj (base @ [ ("op", Report.Jstring "shutdown") ])
  | Sim sr ->
      let scheme_fields =
        match sr.scheme with
        | Config.Way_placement { area_bytes } ->
            [ ("area_bytes", Report.Jint area_bytes) ]
        | Config.Filter_cache { l0_bytes } ->
            [ ("l0_bytes", Report.Jint l0_bytes) ]
        | Config.Baseline | Config.Way_memoization | Config.Way_prediction ->
            []
      in
      Report.Jobj
        (base
        @ [
            ("op", Report.Jstring "sim");
            ("benchmark", Report.Jstring sr.benchmark);
            ("scheme", Report.Jstring (scheme_to_string sr.scheme));
          ]
        @ scheme_fields
        @ [
            ("size_kb", Report.Jint sr.size_kb);
            ("ways", Report.Jint sr.ways);
            ("line_bytes", Report.Jint sr.line_bytes);
            ("no_cache", Report.Jbool sr.no_cache);
            ("verify", Report.Jbool sr.verify);
          ])
  | Mp mr ->
      let scheme_fields =
        match mr.mp_scheme with
        | Config.Way_placement { area_bytes } ->
            [ ("area_bytes", Report.Jint area_bytes) ]
        | Config.Filter_cache { l0_bytes } ->
            [ ("l0_bytes", Report.Jint l0_bytes) ]
        | Config.Baseline | Config.Way_memoization | Config.Way_prediction ->
            []
      in
      Report.Jobj
        (base
        @ [
            ("op", Report.Jstring "mp");
            ("mix", Report.Jstring mr.mp_mix);
            ("coverage", Report.Jstring mr.mp_coverage);
            ("quantum", Report.Jint mr.mp_quantum);
            ("kernel", Report.Jbool mr.mp_kernel);
            ("btb_flush", Report.Jbool mr.mp_btb_flush);
            ("drowsy_flush", Report.Jbool mr.mp_drowsy_flush);
            ("priority", Report.Jbool mr.mp_priority);
            ("scheme", Report.Jstring (scheme_to_string mr.mp_scheme));
          ]
        @ scheme_fields
        @ [
            ("size_kb", Report.Jint mr.mp_size_kb);
            ("ways", Report.Jint mr.mp_ways);
            ("line_bytes", Report.Jint mr.mp_line_bytes);
            ("no_cache", Report.Jbool mr.mp_no_cache);
            ("verify", Report.Jbool mr.mp_verify);
          ])
  | Grid gr ->
      Report.Jobj
        (base
        @ [
            ("op", Report.Jstring "grid");
            ( "benchmarks",
              Report.Jlist
                (List.map (fun b -> Report.Jstring b) gr.g_benchmarks) );
            ("schemes", Report.Jlist (List.map scheme_to_json gr.g_schemes));
            ( "sizes_kb",
              Report.Jlist (List.map (fun n -> Report.Jint n) gr.g_sizes_kb) );
            ("ways", Report.Jlist (List.map (fun n -> Report.Jint n) gr.g_ways));
            ("line_bytes", Report.Jint gr.g_line_bytes);
            ("no_cache", Report.Jbool gr.g_no_cache);
          ])
  | Advise ar ->
      Report.Jobj
        (base
        @ [
            ("op", Report.Jstring "advise");
            ("benchmark", Report.Jstring ar.ad_benchmark);
            ("size_kb", Report.Jint ar.ad_size_kb);
            ("ways", Report.Jint ar.ad_ways);
            ("line_bytes", Report.Jint ar.ad_line_bytes);
            ("area_kb", Report.Jint ar.ad_area_kb);
            ("page_bytes", Report.Jint ar.ad_page_bytes);
            ("no_cache", Report.Jbool ar.ad_no_cache);
          ])

let scheme_of_json j =
  let* scheme_name = field "scheme" Report.to_string j in
  match scheme_name with
  | "baseline" -> Ok Config.Baseline
  | "wayplace" ->
      let* area_bytes =
        field_default "area_bytes" Report.to_int ~default:(16 * 1024) j
      in
      Ok (Config.Way_placement { area_bytes })
  | "waymemo" -> Ok Config.Way_memoization
  | "waypred" -> Ok Config.Way_prediction
  | "filter" ->
      let* l0_bytes = field_default "l0_bytes" Report.to_int ~default:512 j in
      Ok (Config.Filter_cache { l0_bytes })
  | other -> Error (Printf.sprintf "unknown scheme %S" other)

let sim_of_json j =
  let* benchmark = field "benchmark" Report.to_string j in
  let* scheme = scheme_of_json j in
  let* size_kb = field_default "size_kb" Report.to_int ~default:32 j in
  let* ways = field_default "ways" Report.to_int ~default:32 j in
  let* line_bytes = field_default "line_bytes" Report.to_int ~default:32 j in
  let* no_cache = field_default "no_cache" Report.to_bool ~default:false j in
  let* verify = field_default "verify" Report.to_bool ~default:false j in
  Ok { benchmark; scheme; size_kb; ways; line_bytes; no_cache; verify }

let mp_of_json j =
  let* mp_mix = field "mix" Report.to_string j in
  let* mp_coverage = field_default "coverage" Report.to_string ~default:"mix" j in
  let* mp_quantum = field_default "quantum" Report.to_int ~default:50_000 j in
  let* mp_kernel = field_default "kernel" Report.to_bool ~default:true j in
  let* mp_btb_flush = field_default "btb_flush" Report.to_bool ~default:false j in
  let* mp_drowsy_flush =
    field_default "drowsy_flush" Report.to_bool ~default:false j
  in
  let* mp_priority = field_default "priority" Report.to_bool ~default:false j in
  let* mp_scheme = scheme_of_json j in
  let* mp_size_kb = field_default "size_kb" Report.to_int ~default:32 j in
  let* mp_ways = field_default "ways" Report.to_int ~default:32 j in
  let* mp_line_bytes = field_default "line_bytes" Report.to_int ~default:32 j in
  let* mp_no_cache = field_default "no_cache" Report.to_bool ~default:false j in
  let* mp_verify = field_default "verify" Report.to_bool ~default:false j in
  Ok
    {
      mp_mix;
      mp_coverage;
      mp_quantum;
      mp_kernel;
      mp_btb_flush;
      mp_drowsy_flush;
      mp_priority;
      mp_scheme;
      mp_size_kb;
      mp_ways;
      mp_line_bytes;
      mp_no_cache;
      mp_verify;
    }

let advise_of_json j =
  let* ad_benchmark = field "benchmark" Report.to_string j in
  let* ad_size_kb = field_default "size_kb" Report.to_int ~default:32 j in
  let* ad_ways = field_default "ways" Report.to_int ~default:32 j in
  let* ad_line_bytes = field_default "line_bytes" Report.to_int ~default:32 j in
  let* ad_area_kb = field_default "area_kb" Report.to_int ~default:16 j in
  let* ad_page_bytes =
    field_default "page_bytes" Report.to_int ~default:1024 j
  in
  let* ad_no_cache = field_default "no_cache" Report.to_bool ~default:false j in
  Ok
    {
      ad_benchmark;
      ad_size_kb;
      ad_ways;
      ad_line_bytes;
      ad_area_kb;
      ad_page_bytes;
      ad_no_cache;
    }

let grid_of_json j =
  let* g_benchmarks =
    field_list "benchmarks" (elem "benchmarks" Report.to_string) j
  in
  let* g_schemes = field_list "schemes" scheme_of_json j in
  let* g_sizes_kb = field_list "sizes_kb" (elem "sizes_kb" Report.to_int) j in
  let* g_ways = field_list "ways" (elem "ways" Report.to_int) j in
  let* g_line_bytes = field_default "line_bytes" Report.to_int ~default:32 j in
  let* g_no_cache = field_default "no_cache" Report.to_bool ~default:false j in
  Ok { g_benchmarks; g_schemes; g_sizes_kb; g_ways; g_line_bytes; g_no_cache }

let request_of_json j =
  match j with
  | Report.Jobj _ ->
      let* id = field_default "id" Report.to_int ~default:0 j in
      let* op = field "op" Report.to_string j in
      let* payload =
        match op with
        | "ping" -> Ok Ping
        | "stats" -> Ok Server_stats
        | "shutdown" -> Ok Shutdown
        | "sim" ->
            let* sr = sim_of_json j in
            Ok (Sim sr)
        | "mp" ->
            let* mr = mp_of_json j in
            Ok (Mp mr)
        | "advise" ->
            let* ar = advise_of_json j in
            Ok (Advise ar)
        | "grid" ->
            let* gr = grid_of_json j in
            Ok (Grid gr)
        | other -> Error (Printf.sprintf "unknown op %S" other)
      in
      Ok { id; payload }
  | _ -> Error "request is not a JSON object"

(* --- response encoding ---------------------------------------------- *)

let server_stats_to_json s =
  Report.Jobj
    [
      ("requests", Report.Jint s.requests);
      ("sim_requests", Report.Jint s.sim_requests);
      ("computations", Report.Jint s.computations);
      ("hits_memory", Report.Jint s.hits_memory);
      ("hits_disk", Report.Jint s.hits_disk);
      ("coalesced", Report.Jint s.coalesced);
      ("errors", Report.Jint s.errors);
      ("store_entries", Report.Jint s.store_entries);
      ("inflight", Report.Jint s.inflight);
      ("workers", Report.Jint s.workers);
      ("uptime_s", Report.Jfloat s.uptime_s);
    ]

let server_stats_of_json j =
  let* requests = field "requests" Report.to_int j in
  let* sim_requests = field "sim_requests" Report.to_int j in
  let* computations = field "computations" Report.to_int j in
  let* hits_memory = field "hits_memory" Report.to_int j in
  let* hits_disk = field "hits_disk" Report.to_int j in
  let* coalesced = field "coalesced" Report.to_int j in
  let* errors = field "errors" Report.to_int j in
  let* store_entries = field "store_entries" Report.to_int j in
  let* inflight = field "inflight" Report.to_int j in
  let* workers = field "workers" Report.to_int j in
  let* uptime_s = field "uptime_s" Report.to_float j in
  Ok
    {
      requests;
      sim_requests;
      computations;
      hits_memory;
      hits_disk;
      coalesced;
      errors;
      store_entries;
      inflight;
      workers;
      uptime_s;
    }

let sim_result_to_json r =
  Report.Jobj
    [
      ("key", Report.Jstring r.key);
      ("source", Report.Jstring (source_name r.source));
      ("digest", Report.Jstring r.digest);
      ("cycles", Report.Jint r.cycles);
      ("retired", Report.Jint r.retired);
      ("fetches", Report.Jint r.fetches);
      ("icache_hits", Report.Jint r.icache_hits);
      ("icache_misses", Report.Jint r.icache_misses);
      ("icache_energy_pj", Report.Jfloat r.icache_energy_pj);
      ("total_energy_pj", Report.Jfloat r.total_energy_pj);
    ]

let sim_result_of_json j =
  let* key = field "key" Report.to_string j in
  let* source_s = field "source" Report.to_string j in
  let* source =
    match source_of_name source_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown source %S" source_s)
  in
  let* digest = field "digest" Report.to_string j in
  let* cycles = field "cycles" Report.to_int j in
  let* retired = field "retired" Report.to_int j in
  let* fetches = field "fetches" Report.to_int j in
  let* icache_hits = field "icache_hits" Report.to_int j in
  let* icache_misses = field "icache_misses" Report.to_int j in
  let* icache_energy_pj = field "icache_energy_pj" Report.to_float j in
  let* total_energy_pj = field "total_energy_pj" Report.to_float j in
  Ok
    {
      key;
      source;
      digest;
      cycles;
      retired;
      fetches;
      icache_hits;
      icache_misses;
      icache_energy_pj;
      total_energy_pj;
    }

let mp_result_to_json r =
  Report.Jobj
    [
      ("key", Report.Jstring r.mpr_key);
      ("source", Report.Jstring (source_name r.mpr_source));
      ("digest", Report.Jstring r.mpr_digest);
      ("cycles", Report.Jint r.mpr_cycles);
      ("retired", Report.Jint r.mpr_retired);
      ("processes", Report.Jint r.mpr_processes);
      ("switches", Report.Jint r.mpr_switches);
      ("kernel_runs", Report.Jint r.mpr_kernel_runs);
      ("icache_energy_pj", Report.Jfloat r.mpr_icache_energy_pj);
      ("total_energy_pj", Report.Jfloat r.mpr_total_energy_pj);
    ]

let mp_result_of_json j =
  let* mpr_key = field "key" Report.to_string j in
  let* source_s = field "source" Report.to_string j in
  let* mpr_source =
    match source_of_name source_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown source %S" source_s)
  in
  let* mpr_digest = field "digest" Report.to_string j in
  let* mpr_cycles = field "cycles" Report.to_int j in
  let* mpr_retired = field "retired" Report.to_int j in
  let* mpr_processes = field "processes" Report.to_int j in
  let* mpr_switches = field "switches" Report.to_int j in
  let* mpr_kernel_runs = field "kernel_runs" Report.to_int j in
  let* mpr_icache_energy_pj = field "icache_energy_pj" Report.to_float j in
  let* mpr_total_energy_pj = field "total_energy_pj" Report.to_float j in
  Ok
    {
      mpr_key;
      mpr_source;
      mpr_digest;
      mpr_cycles;
      mpr_retired;
      mpr_processes;
      mpr_switches;
      mpr_kernel_runs;
      mpr_icache_energy_pj;
      mpr_total_energy_pj;
    }

let advise_result_to_json r =
  Report.Jobj
    [
      ("key", Report.Jstring r.adr_key);
      ("source", Report.Jstring (source_name r.adr_source));
      ("digest", Report.Jstring r.adr_digest);
      ("static_min_ways", Report.Jint r.adr_static_min_ways);
      ("min_area_bytes", Report.Jint r.adr_min_area_bytes);
      ("regions", Report.Jint r.adr_regions);
      ("findings", Report.Jint r.adr_findings);
      ("errors", Report.Jint r.adr_errors);
      ("warnings", Report.Jint r.adr_warnings);
      ("schedule_points", Report.Jint r.adr_schedule_points);
      ("conflict_misses", Report.Jint r.adr_conflict_misses);
      ("env_lo_pj", Report.Jfloat r.adr_env_lo_pj);
      ("env_hi_pj", Report.Jfloat r.adr_env_hi_pj);
      ("predicted_delta_pj", Report.Jfloat r.adr_predicted_delta_pj);
    ]

let advise_result_of_json j =
  let* adr_key = field "key" Report.to_string j in
  let* source_s = field "source" Report.to_string j in
  let* adr_source =
    match source_of_name source_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown source %S" source_s)
  in
  let* adr_digest = field "digest" Report.to_string j in
  let* adr_static_min_ways = field "static_min_ways" Report.to_int j in
  let* adr_min_area_bytes = field "min_area_bytes" Report.to_int j in
  let* adr_regions = field "regions" Report.to_int j in
  let* adr_findings = field "findings" Report.to_int j in
  let* adr_errors = field "errors" Report.to_int j in
  let* adr_warnings = field "warnings" Report.to_int j in
  let* adr_schedule_points = field "schedule_points" Report.to_int j in
  let* adr_conflict_misses = field "conflict_misses" Report.to_int j in
  let* adr_env_lo_pj = field "env_lo_pj" Report.to_float j in
  let* adr_env_hi_pj = field "env_hi_pj" Report.to_float j in
  let* adr_predicted_delta_pj = field "predicted_delta_pj" Report.to_float j in
  Ok
    {
      adr_key;
      adr_source;
      adr_digest;
      adr_static_min_ways;
      adr_min_area_bytes;
      adr_regions;
      adr_findings;
      adr_errors;
      adr_warnings;
      adr_schedule_points;
      adr_conflict_misses;
      adr_env_lo_pj;
      adr_env_hi_pj;
      adr_predicted_delta_pj;
    }

let grid_cell_to_json c =
  Report.Jobj
    ([
       ("index", Report.Jint c.gc_index);
       ("benchmark", Report.Jstring c.gc_benchmark);
       ("scheme", scheme_to_json c.gc_scheme);
       ("size_kb", Report.Jint c.gc_size_kb);
       ("ways", Report.Jint c.gc_ways);
     ]
    @
    match c.gc_outcome with
    | Ok r -> [ ("result", sim_result_to_json r) ]
    | Error msg -> [ ("error", Report.Jstring msg) ])

let grid_cell_of_json j =
  let* gc_index = field "index" Report.to_int j in
  let* gc_benchmark = field "benchmark" Report.to_string j in
  let* sj = field "scheme" Option.some j in
  let* gc_scheme = scheme_of_json sj in
  let* gc_size_kb = field "size_kb" Report.to_int j in
  let* gc_ways = field "ways" Report.to_int j in
  let* gc_outcome =
    match Report.member "error" j with
    | Some (Report.Jstring msg) -> Ok (Error msg)
    | Some _ -> Error "field \"error\" has the wrong type"
    | None ->
        let* r = field "result" Option.some j in
        let* r = sim_result_of_json r in
        Ok (Ok r)
  in
  Ok { gc_index; gc_benchmark; gc_scheme; gc_size_kb; gc_ways; gc_outcome }

let grid_summary_to_json s =
  Report.Jobj
    [
      ("cells", Report.Jint s.gs_cells);
      ("computed", Report.Jint s.gs_computed);
      ("hits_memory", Report.Jint s.gs_hits_memory);
      ("hits_disk", Report.Jint s.gs_hits_disk);
      ("coalesced", Report.Jint s.gs_coalesced);
      ("errors", Report.Jint s.gs_errors);
    ]

let grid_summary_of_json j =
  let* gs_cells = field "cells" Report.to_int j in
  let* gs_computed = field "computed" Report.to_int j in
  let* gs_hits_memory = field "hits_memory" Report.to_int j in
  let* gs_hits_disk = field "hits_disk" Report.to_int j in
  let* gs_coalesced = field "coalesced" Report.to_int j in
  let* gs_errors = field "errors" Report.to_int j in
  Ok
    {
      gs_cells;
      gs_computed;
      gs_hits_memory;
      gs_hits_disk;
      gs_coalesced;
      gs_errors;
    }

let response_to_json { id; reply } =
  let base = [ ("id", Report.Jint id) ] in
  match reply with
  | Pong -> Report.Jobj (base @ [ ("reply", Report.Jstring "pong") ])
  | Shutting_down ->
      Report.Jobj (base @ [ ("reply", Report.Jstring "shutting-down") ])
  | Stats_reply s ->
      Report.Jobj
        (base
        @ [
            ("reply", Report.Jstring "server-stats");
            ("stats", server_stats_to_json s);
          ])
  | Sim_reply r ->
      Report.Jobj
        (base
        @ [ ("reply", Report.Jstring "result"); ("result", sim_result_to_json r) ])
  | Mp_reply r ->
      Report.Jobj
        (base
        @ [
            ("reply", Report.Jstring "mp-result");
            ("result", mp_result_to_json r);
          ])
  | Advise_reply r ->
      Report.Jobj
        (base
        @ [
            ("reply", Report.Jstring "advise-result");
            ("result", advise_result_to_json r);
          ])
  | Grid_cell_reply c ->
      Report.Jobj
        (base
        @ [ ("reply", Report.Jstring "grid-cell"); ("cell", grid_cell_to_json c) ])
  | Grid_done s ->
      Report.Jobj
        (base
        @ [
            ("reply", Report.Jstring "grid-done");
            ("summary", grid_summary_to_json s);
          ])
  | Error_reply msg ->
      Report.Jobj
        (base @ [ ("reply", Report.Jstring "error"); ("error", Report.Jstring msg) ])

let response_of_json j =
  match j with
  | Report.Jobj _ ->
      let* id = field_default "id" Report.to_int ~default:0 j in
      let* kind = field "reply" Report.to_string j in
      let* reply =
        match kind with
        | "pong" -> Ok Pong
        | "shutting-down" -> Ok Shutting_down
        | "server-stats" ->
            let* s = field "stats" Option.some j in
            let* s = server_stats_of_json s in
            Ok (Stats_reply s)
        | "result" ->
            let* r = field "result" Option.some j in
            let* r = sim_result_of_json r in
            Ok (Sim_reply r)
        | "mp-result" ->
            let* r = field "result" Option.some j in
            let* r = mp_result_of_json r in
            Ok (Mp_reply r)
        | "advise-result" ->
            let* r = field "result" Option.some j in
            let* r = advise_result_of_json r in
            Ok (Advise_reply r)
        | "grid-cell" ->
            let* c = field "cell" Option.some j in
            let* c = grid_cell_of_json c in
            Ok (Grid_cell_reply c)
        | "grid-done" ->
            let* s = field "summary" Option.some j in
            let* s = grid_summary_of_json s in
            Ok (Grid_done s)
        | "error" ->
            let* msg = field "error" Report.to_string j in
            Ok (Error_reply msg)
        | other -> Error (Printf.sprintf "unknown reply kind %S" other)
      in
      Ok { id; reply }
  | _ -> Error "response is not a JSON object"

(* --- line level ------------------------------------------------------ *)

let request_to_line r = Report.json_to_string (request_to_json r) ^ "\n"
let response_to_line r = Report.json_to_string (response_to_json r) ^ "\n"

let request_of_line line =
  let* j = Report.parse line in
  request_of_json j

let response_of_line line =
  let* j = Report.parse line in
  response_of_json j

let id_of_line line =
  match Report.parse line with
  | Ok j -> (
      match Report.member "id" j with
      | Some (Report.Jint id) -> id
      | _ -> 0)
  | Error _ -> 0
