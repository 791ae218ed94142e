(* The placement service battery: protocol round-trips and decode
   errors, content-addressed store correctness (bit-identical hits,
   corruption recovery, shared directories), daemon integration over a
   Unix socket (memoisation, error isolation, persistence across
   restarts) and the concurrency stress: parallel clients against a
   sequential oracle, in-flight coalescing, graceful shutdown
   mid-burst. *)

module P = Wayplace.Serve.Protocol
module Store = Wayplace.Serve.Store
module Daemon = Wayplace.Serve.Daemon
module Client = Wayplace.Serve.Client
module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* --- protocol round-trips ------------------------------------------- *)

let nasty = "a\"b\\c\nd\te\r\x07f caf\xc3\xa9 \x00z"

let all_schemes =
  [
    Config.Baseline;
    Config.Way_placement { area_bytes = 16 * 1024 };
    Config.Way_placement { area_bytes = 2 * 1024 };
    Config.Way_memoization;
    Config.Way_prediction;
    Config.Filter_cache { l0_bytes = 512 };
    Config.Filter_cache { l0_bytes = 1024 };
  ]

let sample_requests =
  { P.id = 0; payload = P.Ping }
  :: { P.id = max_int; payload = P.Server_stats }
  :: { P.id = 7; payload = P.Shutdown }
  :: { P.id = 1; payload = P.Sim (P.sim_request ~benchmark:nasty ~scheme:Config.Baseline ()) }
  :: { P.id = 2;
       payload =
         P.Sim
           (P.sim_request ~size_kb:8 ~ways:4 ~line_bytes:16 ~no_cache:true
              ~verify:true ~benchmark:"crc"
              ~scheme:(Config.Way_placement { area_bytes = 4096 })
              ());
     }
  :: { P.id = 3;
       payload =
         P.Mp
           (P.mp_request ~mix:"crc,sha" ~coverage:"half" ~quantum:8_000
              ~kernel:false ~btb_flush:true ~drowsy_flush:true ~priority:true
              ~size_kb:16 ~ways:16 ~line_bytes:32 ~no_cache:true ~verify:true
              ~scheme:(Config.Way_placement { area_bytes = 8192 })
              ());
     }
  :: { P.id = 4;
       payload = P.Mp (P.mp_request ~mix:"random:7" ~scheme:Config.Baseline ());
     }
  :: { P.id = 5;
       payload = P.Mp (P.mp_request ~mix:nasty ~scheme:Config.Way_memoization ());
     }
  :: { P.id = 6; payload = P.Advise (P.advise_request ~benchmark:nasty ()) }
  :: { P.id = 8;
       payload =
         P.Advise
           (P.advise_request ~size_kb:8 ~ways:4 ~line_bytes:16 ~area_kb:2
              ~page_bytes:512 ~no_cache:true ~benchmark:"crc" ());
     }
  :: { P.id = 9;
       payload =
         P.Grid
           (P.grid_request ~sizes_kb:[ 8; 16 ] ~ways:[ 4; 32 ] ~line_bytes:16
              ~no_cache:true
              ~benchmarks:[ "crc"; nasty ]
              ~schemes:
                [ Config.Baseline; Config.Way_placement { area_bytes = 4096 } ]
              ());
     }
  :: { P.id = 10;
       payload =
         P.Grid
           (P.grid_request ~benchmarks:[ "sha" ]
              ~schemes:[ Config.Way_memoization ] ());
     }
  :: List.mapi
       (fun i scheme ->
         { P.id = 100 + i; payload = P.Sim (P.sim_request ~benchmark:"sha" ~scheme ()) })
       all_schemes

let sim_result_sample source =
  {
    P.key = String.make 32 'a';
    source;
    digest = String.make 32 '0';
    cycles = 123456789;
    retired = 100;
    fetches = 99;
    icache_hits = 98;
    icache_misses = 1;
    icache_energy_pj = 0.1 +. 0.2 (* deliberately non-representable *);
    total_energy_pj = 1234.5678901234567;
  }

let sample_responses =
  [
    { P.id = 0; reply = P.Pong };
    { P.id = 1; reply = P.Shutting_down };
    { P.id = 2; reply = P.Error_reply nasty };
    { P.id = 3;
      reply =
        P.Stats_reply
          {
            P.requests = 10; sim_requests = 9; computations = 3;
            hits_memory = 4; hits_disk = 1; coalesced = 1; errors = 0;
            store_entries = 3; inflight = 2; workers = 4; uptime_s = 12.25;
          };
    };
  ]
  @ List.mapi
      (fun i source -> { P.id = 10 + i; reply = P.Sim_reply (sim_result_sample source) })
      [ P.Computed; P.Memory; P.Disk; P.Coalesced ]
  @ [
      { P.id = 20;
        reply =
          P.Mp_reply
            {
              P.mpr_key = "mp-" ^ String.make 32 'b';
              mpr_source = P.Disk;
              mpr_digest = String.make 32 '1';
              mpr_cycles = 987654321;
              mpr_retired = 1000;
              mpr_processes = 3;
              (* a disk hit after a restart: machine-level facts lost *)
              mpr_switches = -1;
              mpr_kernel_runs = -1;
              mpr_icache_energy_pj = 0.1 +. 0.2;
              mpr_total_energy_pj = 9876.54321;
            };
      };
      { P.id = 21;
        reply =
          P.Advise_reply
            {
              P.adr_key = "advise-" ^ String.make 32 'c';
              adr_source = P.Coalesced;
              adr_digest = String.make 32 '2';
              adr_static_min_ways = 3;
              adr_min_area_bytes = 3072;
              adr_regions = 17;
              adr_findings = 4;
              adr_errors = 0;
              adr_warnings = 1;
              adr_schedule_points = 5;
              adr_conflict_misses = 42;
              adr_env_lo_pj = 0.1 +. 0.2;
              adr_env_hi_pj = 98765.4321;
              adr_predicted_delta_pj = 0.0;
            };
      };
      { P.id = 30;
        reply =
          P.Grid_cell_reply
            {
              P.gc_index = 0;
              gc_benchmark = "crc";
              gc_scheme = Config.Way_placement { area_bytes = 4096 };
              gc_size_kb = 8;
              gc_ways = 4;
              gc_outcome = Ok (sim_result_sample P.Computed);
            };
      };
      { P.id = 31;
        reply =
          P.Grid_cell_reply
            {
              P.gc_index = 3;
              gc_benchmark = nasty;
              gc_scheme = Config.Filter_cache { l0_bytes = 512 };
              gc_size_kb = 32;
              gc_ways = 32;
              gc_outcome = Error nasty;
            };
      };
      { P.id = 32;
        reply =
          P.Grid_done
            {
              P.gs_cells = 8;
              gs_computed = 4;
              gs_hits_memory = 2;
              gs_hits_disk = 1;
              gs_coalesced = 1;
              gs_errors = 0;
            };
      };
    ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let line = P.request_to_line r in
      Alcotest.(check bool) "line is newline-terminated" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      match P.request_of_line line with
      | Error msg -> Alcotest.failf "round-trip failed on %s: %s" line msg
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d round-trips" r.P.id)
            true (r = r'))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      match P.response_of_line (P.response_to_line r) with
      | Error msg -> Alcotest.failf "round-trip failed (id %d): %s" r.P.id msg
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "response %d round-trips" r.P.id)
            true (r = r'))
    sample_responses

let expect_decode_error what line =
  match P.request_of_line line with
  | Ok _ -> Alcotest.failf "%s: accepted %S" what line
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: diagnostic not empty" what)
        true
        (String.length msg > 0)

let test_request_decode_errors () =
  expect_decode_error "empty line" "";
  expect_decode_error "truncated JSON" "{\"id\":1,\"op\":\"pi";
  expect_decode_error "not an object" "[1,2,3]";
  expect_decode_error "missing op" "{\"id\":1}";
  expect_decode_error "unknown op" "{\"id\":1,\"op\":\"frobnicate\"}";
  expect_decode_error "wrong id type" "{\"id\":\"one\",\"op\":\"ping\"}";
  expect_decode_error "sim without benchmark"
    "{\"id\":1,\"op\":\"sim\",\"scheme\":\"baseline\"}";
  expect_decode_error "wrong benchmark type"
    "{\"id\":1,\"op\":\"sim\",\"benchmark\":7,\"scheme\":\"baseline\"}";
  expect_decode_error "unknown scheme"
    "{\"id\":1,\"op\":\"sim\",\"benchmark\":\"crc\",\"scheme\":\"quantum\"}";
  expect_decode_error "duplicate keys"
    "{\"id\":1,\"id\":2,\"op\":\"ping\"}";
  expect_decode_error "grid without benchmarks"
    "{\"id\":1,\"op\":\"grid\",\"schemes\":[{\"scheme\":\"baseline\"}]}";
  expect_decode_error "grid with empty benchmarks"
    "{\"id\":1,\"op\":\"grid\",\"benchmarks\":[],\"schemes\":[{\"scheme\":\"baseline\"}]}";
  expect_decode_error "grid with mistyped benchmark"
    "{\"id\":1,\"op\":\"grid\",\"benchmarks\":[7],\"schemes\":[{\"scheme\":\"baseline\"}]}";
  expect_decode_error "grid with unknown scheme"
    "{\"id\":1,\"op\":\"grid\",\"benchmarks\":[\"crc\"],\"schemes\":[{\"scheme\":\"quantum\"}]}";
  (* wrong-type errors name the field *)
  (match P.request_of_line "{\"id\":1,\"op\":\"sim\",\"benchmark\":7}" with
  | Ok _ -> Alcotest.fail "wrong-type benchmark accepted"
  | Error msg ->
      let contains hay needle =
        let n = String.length hay and m = String.length needle in
        let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "field named in wrong-type error" true
        (contains msg "benchmark"));
  Alcotest.(check int) "id recovered from malformed line" 42
    (P.id_of_line "{\"id\":42,\"op\":\"sim\"}");
  Alcotest.(check int) "unrecoverable id defaults to 0" 0
    (P.id_of_line "garbage")

let test_config_of_sim () =
  let cfg =
    ok_or_fail "default geometry"
      (P.config_of_sim (P.sim_request ~benchmark:"crc" ~scheme:Config.Baseline ()))
  in
  Alcotest.(check int) "32 KB" (32 * 1024)
    cfg.Config.icache.Wayplace.Cache.Geometry.size_bytes;
  (match
     P.config_of_sim
       (P.sim_request ~size_kb:0 ~benchmark:"crc" ~scheme:Config.Baseline ())
   with
  | Ok _ -> Alcotest.fail "zero-size geometry accepted"
  | Error _ -> ());
  match
    P.config_of_sim
      (P.sim_request ~ways:3 ~benchmark:"crc" ~scheme:Config.Baseline ())
  with
  | Ok _ -> Alcotest.fail "non-power-of-two ways accepted"
  | Error _ -> ()

let test_grid_cells_order () =
  (* The canonical cell order is benchmark-major, then scheme, size,
     ways: the order clients see gc_index in, and the order any two
     runs of the same grid agree on. *)
  let gr =
    P.grid_request ~sizes_kb:[ 8; 16 ] ~ways:[ 4; 32 ]
      ~benchmarks:[ "a"; "b" ]
      ~schemes:[ Config.Baseline; Config.Way_memoization ]
      ()
  in
  let cells = P.grid_cells gr in
  Alcotest.(check int) "full cross product" 16 (List.length cells);
  Alcotest.(check bool) "first cell" true
    (List.nth cells 0 = ("a", Config.Baseline, 8, 4));
  Alcotest.(check bool) "ways varies fastest" true
    (List.nth cells 1 = ("a", Config.Baseline, 8, 32));
  Alcotest.(check bool) "then size" true
    (List.nth cells 2 = ("a", Config.Baseline, 16, 4));
  Alcotest.(check bool) "then scheme" true
    (List.nth cells 4 = ("a", Config.Way_memoization, 8, 4));
  Alcotest.(check bool) "benchmark slowest" true
    (List.nth cells 8 = ("b", Config.Baseline, 8, 4))

(* --- store ----------------------------------------------------------- *)

(* Fresh computations for the store tests: two cheap configurations of
   crc, computed once and reused. *)
let fresh_stats =
  lazy
    (let prep = Runner.prepare (Wayplace.Workloads.Mibench.find "crc") in
     List.map
       (fun scheme ->
         let sr = P.sim_request ~benchmark:"crc" ~scheme () in
         let config = ok_or_fail "config" (P.config_of_sim sr) in
         let key =
           Store.sim_address ~code:(Store.code_digest prep config) config
         in
         (key, Runner.run_scheme prep config))
       [ Config.Baseline; Config.Way_placement { area_bytes = 16 * 1024 } ])

let temp_store_dir () = Filename.temp_dir "wp-store-test" ""

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store_dir f =
  let dir = temp_store_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let check_stats_identical label a b =
  if not (Stats.equal a b) then
    Alcotest.failf "%s: stats differ:@.%a" label Stats.pp_diff (a, b)

let test_store_hit_bit_identical () =
  with_store_dir (fun dir ->
      let store = ok_or_fail "create" (Store.create ~dir ()) in
      List.iter
        (fun (key, stats) ->
          Store.put store key stats;
          (* memory hit *)
          (match Store.find store key with
          | Some (got, `Memory) ->
              check_stats_identical "memory hit" stats got;
              Alcotest.(check string) "digest identical" (Store.stats_digest stats)
                (Store.stats_digest got)
          | Some (_, `Disk) -> Alcotest.fail "expected memory hit"
          | None -> Alcotest.fail "stored entry not found");
          (* disk round-trip through a second store on the same dir *)
          let store2 = ok_or_fail "second store" (Store.create ~dir ()) in
          match Store.find store2 key with
          | Some (got, `Disk) ->
              check_stats_identical "disk hit" stats got;
              Alcotest.(check string) "digest identical after disk round-trip"
                (Store.stats_digest stats) (Store.stats_digest got);
              (* promoted: second lookup is a memory hit *)
              (match Store.find store2 key with
              | Some (_, `Memory) -> ()
              | _ -> Alcotest.fail "disk hit not promoted")
          | Some (_, `Memory) -> Alcotest.fail "fresh store claims memory hit"
          | None -> Alcotest.fail "persisted entry not found")
        (Lazy.force fresh_stats))

let clobber_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let test_store_corruption_recovery () =
  let key, stats = List.hd (Lazy.force fresh_stats) in
  let corruptions =
    [
      ("zero-length", "");
      ("truncated header", "wpstor");
      ("wrong magic", "NOTMAGIC\n" ^ String.make 40 'x');
      ( "torn payload",
        (* valid magic, digest of a different payload *)
        "wpstore2\n" ^ String.make 16 'd' ^ "garbage payload" );
    ]
  in
  List.iter
    (fun (what, content) ->
      with_store_dir (fun dir ->
          let store = ok_or_fail "create" (Store.create ~dir ()) in
          Store.put store key stats;
          Alcotest.(check int) (what ^ ": persisted") 1 (Store.disk_entries store);
          clobber_file (Filename.concat dir key) content;
          (* a fresh store (no hot entry) must detect, evict, miss *)
          let cold = ok_or_fail "cold store" (Store.create ~dir ()) in
          (match Store.find cold key with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: corrupt entry served" what);
          Alcotest.(check int) (what ^ ": evicted from disk") 0
            (Store.disk_entries cold);
          Alcotest.(check int) (what ^ ": eviction counted") 1
            (Store.evictions cold);
          (* recompute-and-put heals the entry *)
          Store.put cold key stats;
          match Store.find cold key with
          | Some (got, _) -> check_stats_identical (what ^ ": healed") stats got
          | None -> Alcotest.failf "%s: healed entry missing" what))
    corruptions

let test_store_shared_directory () =
  with_store_dir (fun dir ->
      let a = ok_or_fail "store a" (Store.create ~dir ()) in
      let b = ok_or_fail "store b" (Store.create ~dir ()) in
      let entries = Lazy.force fresh_stats in
      let key0, stats0 = List.nth entries 0 in
      let key1, stats1 = List.nth entries 1 in
      (* concurrent same-key writes from both stores race benignly *)
      let t1 = Thread.create (fun () -> Store.put a key0 stats0) () in
      let t2 = Thread.create (fun () -> Store.put b key0 stats0) () in
      Thread.join t1;
      Thread.join t2;
      Store.put b key1 stats1;
      Alcotest.(check int) "no write failures"
        0
        (Store.write_failures a + Store.write_failures b);
      Alcotest.(check int) "both keys on disk" 2 (Store.disk_entries a);
      (* no temporary droppings left behind *)
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun e -> String.length e >= 4 && String.sub e 0 4 = ".tmp")
      in
      Alcotest.(check (list string)) "no tmp files" [] leftovers;
      (* each store still reads back an intact entry *)
      match Store.find a key0 with
      | Some (got, _) -> check_stats_identical "shared dir read" stats0 got
      | None -> Alcotest.fail "entry missing after shared writes")

let test_store_rejects_traversal_keys () =
  with_store_dir (fun dir ->
      let store = ok_or_fail "create" (Store.create ~dir ()) in
      let _, stats = List.hd (Lazy.force fresh_stats) in
      (* non-hex keys never touch the filesystem *)
      Store.put store "../../etc/evil" stats;
      Alcotest.(check int) "traversal key not persisted" 0
        (Store.disk_entries store);
      (* the lookup must not crash either *)
      ignore (Store.find store "../../etc/evil"))

let test_store_unwritable_dir () =
  match Store.create ~dir:"/nonexistent-root/deeper/store" () with
  | Ok _ -> Alcotest.fail "store created under a nonexistent root"
  | Error msg ->
      Alcotest.(check bool) "diagnostic not empty" true (String.length msg > 0)

let test_store_key_ignores_sharing () =
  let prep = Runner.prepare (Wayplace.Workloads.Mibench.find "crc") in
  let mix = ok_or_fail "mix" (Wayplace.Mp.Mix.of_names [ "crc"; "sha" ]) in
  let options = Wayplace.Mp.Machine.default_options in
  List.iter
    (fun scheme ->
      let shared = Config.xscale scheme in
      let copied =
        Config.with_icache (Config.xscale scheme)
          (Config.xscale scheme).Config.icache
      in
      Alcotest.(check bool) "xscale shares its geometry" true
        (shared.Config.icache == shared.Config.dcache);
      Alcotest.(check bool) "with_icache copy does not" false
        (copied.Config.icache == copied.Config.dcache);
      Alcotest.(check bool) "structurally equal" true (shared = copied);
      let sim config =
        Store.sim_address ~code:(Store.code_digest prep config) config
      in
      Alcotest.(check string) "equal configs, one sim key" (sim shared)
        (sim copied);
      Alcotest.(check string) "equal configs, one mp key"
        (Store.mp_address mix shared options)
        (Store.mp_address mix copied options))
    [ Config.Baseline; Config.Way_placement { area_bytes = 16 * 1024 } ]

(* --- daemon integration --------------------------------------------- *)

let with_daemon ?workers ?store_dir f =
  let sock = Filename.temp_file "wp-serve" ".sock" in
  Sys.remove sock;
  let endpoint = P.Unix_socket sock in
  let daemon =
    ok_or_fail "daemon create" (Daemon.create ?workers ?store_dir ~endpoint ())
  in
  let thread = Daemon.start daemon in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop daemon;
      Thread.join thread;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f daemon endpoint)

(* The sequential oracle: digests of locally computed stats, memoised
   per (benchmark, scheme). *)
let oracle_table : (string, string) Hashtbl.t = Hashtbl.create 8
let oracle_preps : (string, Runner.prepared) Hashtbl.t = Hashtbl.create 4

let oracle_digest benchmark scheme =
  let tag = benchmark ^ "/" ^ P.scheme_to_string scheme in
  match Hashtbl.find_opt oracle_table tag with
  | Some d -> d
  | None ->
      let prep =
        match Hashtbl.find_opt oracle_preps benchmark with
        | Some p -> p
        | None ->
            let p = Runner.prepare (Wayplace.Workloads.Mibench.find benchmark) in
            Hashtbl.add oracle_preps benchmark p;
            p
      in
      let config =
        ok_or_fail "oracle config"
          (P.config_of_sim (P.sim_request ~benchmark ~scheme ()))
      in
      let d = Store.stats_digest (Runner.run_scheme prep config) in
      Hashtbl.add oracle_table tag d;
      d

let test_daemon_basics () =
  with_daemon ~workers:2 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          ok_or_fail "ping" (Client.ping client);
          let sr = P.sim_request ~benchmark:"crc" ~scheme:Config.Baseline () in
          let r1 = ok_or_fail "first sim" (Client.sim client sr) in
          Alcotest.(check bool) "first request computes" true
            (r1.P.source = P.Computed);
          Alcotest.(check string) "matches the sequential oracle"
            (oracle_digest "crc" Config.Baseline)
            r1.P.digest;
          Alcotest.(check int) "one computation" 1 (Daemon.computations daemon);
          (* warm repeat: answered from memory, no simulator run *)
          let r2 = ok_or_fail "repeat sim" (Client.sim client sr) in
          Alcotest.(check bool) "repeat is a memory hit" true
            (r2.P.source = P.Memory);
          Alcotest.(check string) "bit-identical digest" r1.P.digest r2.P.digest;
          Alcotest.(check string) "same content address" r1.P.key r2.P.key;
          Alcotest.(check int) "still one computation" 1
            (Daemon.computations daemon);
          (* no_cache forces a fresh run with an identical result *)
          let r3 =
            ok_or_fail "no_cache sim"
              (Client.sim client
                 (P.sim_request ~no_cache:true ~benchmark:"crc"
                    ~scheme:Config.Baseline ()))
          in
          Alcotest.(check bool) "no_cache computes" true (r3.P.source = P.Computed);
          Alcotest.(check string) "fresh run bit-identical" r1.P.digest r3.P.digest;
          Alcotest.(check int) "second computation" 2 (Daemon.computations daemon);
          (* verify-on-compute passes *)
          let r4 =
            ok_or_fail "verified sim"
              (Client.sim client
                 (P.sim_request ~no_cache:true ~verify:true ~benchmark:"crc"
                    ~scheme:Config.Baseline ()))
          in
          Alcotest.(check string) "verified run bit-identical" r1.P.digest
            r4.P.digest;
          let stats = ok_or_fail "stats" (Client.server_stats client) in
          Alcotest.(check int) "server counts the computations" 3
            stats.P.computations;
          Alcotest.(check int) "server counts the memory hit" 1
            stats.P.hits_memory))

let test_daemon_error_isolation () =
  with_daemon ~workers:1 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* unknown benchmark *)
          (match
             Client.sim client
               (P.sim_request ~benchmark:"no_such_benchmark"
                  ~scheme:Config.Baseline ())
           with
          | Ok _ -> Alcotest.fail "unknown benchmark accepted"
          | Error msg ->
              Alcotest.(check bool) "benchmark named" true
                (String.length msg > 0));
          (* invalid geometry *)
          (match
             Client.sim client
               (P.sim_request ~ways:5 ~benchmark:"crc" ~scheme:Config.Baseline ())
           with
          | Ok _ -> Alcotest.fail "invalid geometry accepted"
          | Error _ -> ());
          (* a raw malformed line gets an error response, not a dropped
             connection *)
          let id = Client.send client P.Ping in
          ignore id;
          (match Client.recv client with
          | Ok { P.reply = P.Pong; _ } -> ()
          | other ->
              Alcotest.failf "expected pong, got %s"
                (match other with
                | Ok _ -> "another reply"
                | Error m -> "error: " ^ m));
          (* the connection survived all of the failures above *)
          ok_or_fail "still serving" (Client.ping client);
          let stats = ok_or_fail "stats" (Client.server_stats client) in
          Alcotest.(check int) "errors counted" 2 stats.P.errors;
          Alcotest.(check int) "nothing computed" 0 (Daemon.computations daemon)))

let test_daemon_persistence_across_restart () =
  with_store_dir (fun dir ->
      let sr = P.sim_request ~benchmark:"crc" ~scheme:Config.Way_memoization () in
      let digest = ref "" in
      with_daemon ~workers:1 ~store_dir:dir (fun daemon endpoint ->
          let client = ok_or_fail "connect" (Client.connect endpoint) in
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let r = ok_or_fail "sim" (Client.sim client sr) in
              Alcotest.(check bool) "computed" true (r.P.source = P.Computed);
              digest := r.P.digest;
              Alcotest.(check int) "one computation" 1
                (Daemon.computations daemon)));
      (* a new daemon on the same store answers from disk: zero
         simulator runs, bit-identical result *)
      with_daemon ~workers:1 ~store_dir:dir (fun daemon endpoint ->
          let client = ok_or_fail "connect" (Client.connect endpoint) in
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let r = ok_or_fail "sim after restart" (Client.sim client sr) in
              Alcotest.(check bool) "disk hit" true (r.P.source = P.Disk);
              Alcotest.(check string) "bit-identical across restart" !digest
                r.P.digest;
              Alcotest.(check int) "no computation" 0
                (Daemon.computations daemon);
              (* and the promoted entry now hits memory *)
              let r2 = ok_or_fail "third run" (Client.sim client sr) in
              Alcotest.(check bool) "promoted to memory" true
                (r2.P.source = P.Memory)));
      (* corrupt the persisted entry: the next daemon recomputes *)
      (match Sys.readdir dir with
      | [||] -> Alcotest.fail "store directory empty"
      | entries ->
          Array.iter
            (fun e -> clobber_file (Filename.concat dir e) "torn write")
            entries);
      with_daemon ~workers:1 ~store_dir:dir (fun daemon endpoint ->
          let client = ok_or_fail "connect" (Client.connect endpoint) in
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let r = ok_or_fail "sim after corruption" (Client.sim client sr) in
              Alcotest.(check bool) "recomputed" true (r.P.source = P.Computed);
              Alcotest.(check string) "recomputation bit-identical" !digest
                r.P.digest;
              Alcotest.(check int) "one computation" 1
                (Daemon.computations daemon))))

let persist_mp =
  P.mp_request ~mix:"crc,sha" ~quantum:10_000
    ~scheme:(Config.Way_placement { area_bytes = 16 * 1024 })
    ()

let persist_advise =
  P.advise_request ~size_kb:1 ~ways:8 ~line_bytes:32 ~area_kb:2
    ~page_bytes:1024 ~benchmark:"crc" ()

let test_daemon_mp_advise_persist () =
  with_store_dir (fun dir ->
      let first = ref None in
      with_daemon ~workers:1 ~store_dir:dir (fun daemon endpoint ->
          let client = ok_or_fail "connect" (Client.connect endpoint) in
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let m = ok_or_fail "mp" (Client.mp client persist_mp) in
              let a = ok_or_fail "advise" (Client.advise client persist_advise) in
              Alcotest.(check bool) "mp computed" true
                (m.P.mpr_source = P.Computed);
              Alcotest.(check bool) "advise computed" true
                (a.P.adr_source = P.Computed);
              Alcotest.(check bool) "switches observed" true
                (m.P.mpr_switches > 0);
              Alcotest.(check int) "two computations" 2
                (Daemon.computations daemon);
              first := Some (m, a)));
      let m1, a1 = Option.get !first in
      (* a new daemon on the same store answers both from disk, with
         the machine facts the computation reported *)
      with_daemon ~workers:1 ~store_dir:dir (fun daemon endpoint ->
          let client = ok_or_fail "connect" (Client.connect endpoint) in
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              let m = ok_or_fail "mp after restart" (Client.mp client persist_mp) in
              let a =
                ok_or_fail "advise after restart"
                  (Client.advise client persist_advise)
              in
              Alcotest.(check bool) "mp disk hit" true (m.P.mpr_source = P.Disk);
              Alcotest.(check bool) "advise disk hit" true
                (a.P.adr_source = P.Disk);
              Alcotest.(check string) "mp bit-identical" m1.P.mpr_digest
                m.P.mpr_digest;
              Alcotest.(check string) "advise bit-identical" a1.P.adr_digest
                a.P.adr_digest;
              Alcotest.(check int) "switches persisted" m1.P.mpr_switches
                m.P.mpr_switches;
              Alcotest.(check int) "kernel runs persisted" m1.P.mpr_kernel_runs
                m.P.mpr_kernel_runs;
              Alcotest.(check int) "no computation" 0
                (Daemon.computations daemon))))

(* A request line without a newline must not grow the daemon without
   bound: past the cap it gets an error reply and its connection is
   closed, while other connections keep being served. *)
let test_daemon_bounds_request_lines () =
  with_daemon ~workers:1 (fun _daemon endpoint ->
      let other = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close other)
        (fun () ->
          ok_or_fail "ping before" (Client.ping other);
          let path =
            match endpoint with
            | P.Unix_socket p -> p
            | P.Tcp _ -> Alcotest.fail "expected a Unix socket"
          in
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX path);
              (* a daemon that keeps reading would leave the reads
                 below waiting: time out instead of hanging *)
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
              let flood =
                Thread.create
                  (fun () ->
                    let chunk = Bytes.make 65536 'x' in
                    try
                      for _ = 1 to 64 do
                        ignore (Unix.write fd chunk 0 (Bytes.length chunk))
                      done
                    with Unix.Unix_error _ -> ())
                  ()
              in
              let buf = Bytes.create 4096 in
              let line = Buffer.create 128 in
              let rec read_reply () =
                match Unix.read fd buf 0 1 with
                | 0 -> Alcotest.fail "closed without a reply"
                | _ when Bytes.get buf 0 = '\n' -> Buffer.contents line
                | _ ->
                    Buffer.add_char line (Bytes.get buf 0);
                    read_reply ()
                | exception Unix.Unix_error (e, _, _) ->
                    Alcotest.failf "no reply to the oversized line: %s"
                      (Unix.error_message e)
              in
              (match P.response_of_line (read_reply ()) with
              | Ok { P.reply = P.Error_reply _; _ } -> ()
              | Ok _ -> Alcotest.fail "oversized line answered without an error"
              | Error msg -> Alcotest.failf "unreadable reply: %s" msg);
              (match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> ()
              | n -> Alcotest.failf "%d more bytes after the error" n
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
              | exception Unix.Unix_error (e, _, _) ->
                  Alcotest.failf "connection left open: %s"
                    (Unix.error_message e));
              Thread.join flood);
          ok_or_fail "other connection still served" (Client.ping other)))

(* --- concurrency stress ---------------------------------------------- *)

let stress_mix =
  [
    ("crc", Config.Baseline);
    ("crc", Config.Way_placement { area_bytes = 16 * 1024 });
    ("crc", Config.Way_memoization);
    ("sha", Config.Baseline);
    ("sha", Config.Way_placement { area_bytes = 16 * 1024 });
  ]

let test_daemon_concurrent_clients_vs_oracle () =
  (* compute the oracle digests before opening the daemon so the
     comparison is against an independent sequential run *)
  let oracle =
    List.map (fun (b, s) -> ((b, s), oracle_digest b s)) stress_mix
  in
  with_daemon ~workers:2 (fun daemon endpoint ->
      let per_domain = 40 in
      let n_domains = 4 in
      let run_client seed =
        let client = ok_or_fail "connect" (Client.connect endpoint) in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            List.init per_domain (fun i ->
                let b, s =
                  List.nth stress_mix ((seed + i) mod List.length stress_mix)
                in
                let r =
                  ok_or_fail "stress sim"
                    (Client.sim client (P.sim_request ~benchmark:b ~scheme:s ()))
                in
                ((b, s), r.P.digest)))
      in
      let domains =
        List.init n_domains (fun d -> Domain.spawn (fun () -> run_client d))
      in
      let answers = List.concat_map Domain.join domains in
      Alcotest.(check int) "every request answered"
        (per_domain * n_domains)
        (List.length answers);
      List.iter
        (fun ((b, s), digest) ->
          let expected = List.assoc (b, s) oracle in
          if digest <> expected then
            Alcotest.failf "%s/%s diverged from the sequential oracle" b
              (P.scheme_to_string s))
        answers;
      (* dedup: at most one computation per distinct key *)
      Alcotest.(check bool)
        (Printf.sprintf "computations (%d) <= distinct keys (%d)"
           (Daemon.computations daemon)
           (List.length stress_mix))
        true
        (Daemon.computations daemon <= List.length stress_mix);
      let stats = Daemon.server_stats daemon in
      Alcotest.(check int) "hits + computations + coalesced = requests"
        (per_domain * n_domains)
        (stats.P.computations + stats.P.hits_memory + stats.P.hits_disk
       + stats.P.coalesced))

(* --- the mp request class ------------------------------------------- *)

let test_daemon_mp () =
  with_daemon ~workers:2 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let wp16 = Config.Way_placement { area_bytes = 16 * 1024 } in
          let mr =
            P.mp_request ~mix:"crc,sha" ~coverage:"half" ~quantum:10_000
              ~scheme:wp16 ()
          in
          let r1 = ok_or_fail "first mp" (Client.mp client mr) in
          Alcotest.(check bool) "first mp computes" true
            (r1.P.mpr_source = P.Computed);
          Alcotest.(check int) "two processes" 2 r1.P.mpr_processes;
          Alcotest.(check bool) "switches observed" true (r1.P.mpr_switches > 0);
          Alcotest.(check bool) "keys live in the mp- namespace" true
            (String.length r1.P.mpr_key > 3
            && String.sub r1.P.mpr_key 0 3 = "mp-");
          (* the same run locally: the aggregate is bit-identical *)
          let mix =
            Wayplace.Mp.Mix.apply_coverage Wayplace.Mp.Mix.Half_placed
              (ok_or_fail "mix" (Wayplace.Mp.Mix.of_names [ "crc"; "sha" ]))
          in
          let config = ok_or_fail "config" (P.config_of_mp mr) in
          let options =
            {
              Wayplace.Mp.Machine.default_options with
              Wayplace.Mp.Machine.quantum_cycles = 10_000;
            }
          in
          let local = Wayplace.Mp.Machine.run ~config ~options mix in
          Alcotest.(check string) "matches the local oracle"
            (Store.stats_digest local.Wayplace.Mp.Machine.aggregate)
            r1.P.mpr_digest;
          Alcotest.(check int) "switch count matches the local oracle"
            local.Wayplace.Mp.Machine.switches r1.P.mpr_switches;
          (* warm repeat: a memory hit with the machine facts intact *)
          let r2 = ok_or_fail "repeat mp" (Client.mp client mr) in
          Alcotest.(check bool) "repeat is a memory hit" true
            (r2.P.mpr_source = P.Memory);
          Alcotest.(check string) "same content address" r1.P.mpr_key
            r2.P.mpr_key;
          Alcotest.(check string) "bit-identical digest" r1.P.mpr_digest
            r2.P.mpr_digest;
          Alcotest.(check int) "switches preserved on the hit"
            r1.P.mpr_switches r2.P.mpr_switches;
          Alcotest.(check int) "one computation" 1 (Daemon.computations daemon);
          (* verify-on-compute replays the reference loop and passes *)
          let r3 =
            ok_or_fail "verified mp"
              (Client.mp client
                 (P.mp_request ~mix:"crc,sha" ~coverage:"half" ~quantum:10_000
                    ~no_cache:true ~verify:true ~scheme:wp16 ()))
          in
          Alcotest.(check string) "verified run bit-identical" r1.P.mpr_digest
            r3.P.mpr_digest;
          (* a random: mix resolves through the fuzz generator *)
          let r4 =
            ok_or_fail "random mix"
              (Client.mp client
                 (P.mp_request ~mix:"random:3" ~scheme:Config.Baseline ()))
          in
          Alcotest.(check bool) "random mix retires instructions" true
            (r4.P.mpr_retired > 0);
          (* unknown names are an error reply, not a dead daemon *)
          (match
             Client.mp client
               (P.mp_request ~mix:"no_such,crc" ~scheme:Config.Baseline ())
           with
          | Ok _ -> Alcotest.fail "unknown mix accepted"
          | Error msg ->
              Alcotest.(check bool) "diagnostic not empty" true
                (String.length msg > 0));
          ok_or_fail "daemon still serving" (Client.ping client)))

(* --- the advise request class --------------------------------------- *)

let test_daemon_advise () =
  with_daemon ~workers:2 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let ar =
            P.advise_request ~size_kb:1 ~ways:8 ~line_bytes:32 ~area_kb:2
              ~page_bytes:1024 ~benchmark:"crc" ()
          in
          let r1 = ok_or_fail "first advise" (Client.advise client ar) in
          Alcotest.(check bool) "first advise computes" true
            (r1.P.adr_source = P.Computed);
          Alcotest.(check bool) "keys live in the advise- namespace" true
            (String.length r1.P.adr_key > 7
            && String.sub r1.P.adr_key 0 7 = "advise-");
          Alcotest.(check bool) "regions found" true (r1.P.adr_regions > 0);
          Alcotest.(check bool) "static bound positive" true
            (r1.P.adr_static_min_ways >= 1);
          Alcotest.(check bool) "envelope ordered" true
            (r1.P.adr_env_lo_pj <= r1.P.adr_env_hi_pj);
          (* the same analysis locally: the report is bit-identical *)
          let prep = Runner.prepare (Wayplace.Workloads.Mibench.find "crc") in
          let geometry =
            Wayplace.Cache.Geometry.make ~size_bytes:1024 ~assoc:8
              ~line_bytes:32
          in
          let local =
            Wayplace.Advise.Advisor.analyze ~benchmark:"crc"
              ~graph:prep.Runner.program.Wayplace.Workloads.Codegen.graph
              ~profile:prep.Runner.profile_small ~trace:prep.Runner.trace_large
              ~layout:prep.Runner.placed_layout ~geometry ~page_bytes:1024
              ~area_bytes:2048
              ~energy:(Config.xscale Config.Baseline).Config.energy ()
          in
          Alcotest.(check string) "matches the local oracle"
            (Digest.to_hex (Digest.string (Marshal.to_string local [])))
            r1.P.adr_digest;
          (* warm repeat: a memory hit with the same content address *)
          let r2 = ok_or_fail "repeat advise" (Client.advise client ar) in
          Alcotest.(check bool) "repeat is a memory hit" true
            (r2.P.adr_source = P.Memory);
          Alcotest.(check string) "same content address" r1.P.adr_key
            r2.P.adr_key;
          Alcotest.(check string) "bit-identical digest" r1.P.adr_digest
            r2.P.adr_digest;
          (* no_cache recomputes — deterministically the same report *)
          let r3 =
            ok_or_fail "no_cache advise"
              (Client.advise client { ar with P.ad_no_cache = true })
          in
          Alcotest.(check bool) "no_cache recomputes" true
            (r3.P.adr_source = P.Computed);
          Alcotest.(check string) "recomputation bit-identical" r1.P.adr_digest
            r3.P.adr_digest;
          (* bad inputs are error replies, not a dead daemon *)
          (match
             Client.advise client (P.advise_request ~benchmark:"no_such" ())
           with
          | Ok _ -> Alcotest.fail "unknown benchmark accepted"
          | Error msg ->
              Alcotest.(check bool) "diagnostic not empty" true
                (String.length msg > 0));
          (match
             Client.advise client
               (P.advise_request ~ways:3 ~benchmark:"crc" ())
           with
          | Ok _ -> Alcotest.fail "non-power-of-two ways accepted"
          | Error msg ->
              Alcotest.(check bool) "geometry diagnostic not empty" true
                (String.length msg > 0));
          ignore daemon;
          ok_or_fail "daemon still serving" (Client.ping client)))

let test_daemon_coalesces_inflight () =
  with_daemon ~workers:1 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* pipeline a burst of identical fresh requests before the
             first can complete: exactly one computation, everyone
             answered identically — for every request kind *)
          let burst payload =
            let before = Daemon.computations daemon in
            let n = 16 in
            let ids = List.init n (fun _ -> Client.send client payload) in
            let responses =
              List.map
                (fun _ ->
                  match Client.recv client with
                  | Ok r -> r
                  | Error msg -> Alcotest.failf "recv failed: %s" msg)
                ids
            in
            Alcotest.(check int) "all answered" n (List.length responses);
            let digests =
              List.map
                (fun r ->
                  match r.P.reply with
                  | P.Sim_reply s -> s.P.digest
                  | P.Mp_reply m -> m.P.mpr_digest
                  | P.Advise_reply a -> a.P.adr_digest
                  | P.Error_reply m -> Alcotest.failf "request failed: %s" m
                  | _ -> Alcotest.fail "unexpected reply")
                responses
            in
            let first = List.hd digests in
            List.iter
              (fun d -> Alcotest.(check string) "identical digest" first d)
              digests;
            Alcotest.(check int) "burst coalesced onto one computation" 1
              (Daemon.computations daemon - before)
          in
          burst
            (P.Sim (P.sim_request ~benchmark:"sha" ~scheme:Config.Way_prediction ()));
          burst (P.Mp persist_mp);
          burst (P.Advise persist_advise)))

let test_daemon_grid () =
  with_daemon ~workers:2 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let gr =
            P.grid_request ~benchmarks:[ "crc"; "sha" ]
              ~schemes:
                [
                  Config.Baseline;
                  Config.Way_placement { area_bytes = 16 * 1024 };
                ]
              ()
          in
          let streamed = ref 0 in
          let cells, summary =
            ok_or_fail "grid"
              (Client.grid ~on_cell:(fun _ -> incr streamed) client gr)
          in
          Alcotest.(check int) "full cross product served" 4
            (List.length cells);
          Alcotest.(check int) "every cell streamed" 4 !streamed;
          Alcotest.(check int) "summary counts the cells" 4 summary.P.gs_cells;
          Alcotest.(check int) "sources partition the cells" 4
            (summary.P.gs_computed + summary.P.gs_hits_memory
           + summary.P.gs_hits_disk + summary.P.gs_coalesced
           + summary.P.gs_errors);
          Alcotest.(check int) "no errors" 0 summary.P.gs_errors;
          (* cells come back in canonical grid order with their
             coordinates echoed *)
          let expected = P.grid_cells gr in
          List.iteri
            (fun i c ->
              let b, s, kb, w = List.nth expected i in
              Alcotest.(check int) "index" i c.P.gc_index;
              Alcotest.(check string) "benchmark" b c.P.gc_benchmark;
              Alcotest.(check bool) "scheme" true (s = c.P.gc_scheme);
              Alcotest.(check int) "size" kb c.P.gc_size_kb;
              Alcotest.(check int) "ways" w c.P.gc_ways)
            cells;
          (* every cell's stats match the sequential oracle *)
          List.iter
            (fun c ->
              match c.P.gc_outcome with
              | Error e ->
                  Alcotest.failf "%s cell errored: %s" c.P.gc_benchmark e
              | Ok r ->
                  Alcotest.(check string)
                    (c.P.gc_benchmark ^ " matches oracle")
                    (oracle_digest c.P.gc_benchmark c.P.gc_scheme)
                    r.P.digest)
            cells;
          (* the same grid again: every cell is a store hit, nothing
             recomputes *)
          let computed_before = Daemon.computations daemon in
          let _, warm = ok_or_fail "warm grid" (Client.grid client gr) in
          Alcotest.(check int) "warm grid: all cells memory hits" 4
            warm.P.gs_hits_memory;
          Alcotest.(check int) "warm grid computes nothing" 0
            warm.P.gs_computed;
          Alcotest.(check int) "no new computations" computed_before
            (Daemon.computations daemon);
          (* grids and standalone sims share the content address *)
          let r =
            ok_or_fail "sim after grid"
              (Client.sim client
                 (P.sim_request ~benchmark:"crc" ~scheme:Config.Baseline ()))
          in
          Alcotest.(check bool) "standalone sim hits the grid's entry" true
            (r.P.source = P.Memory);
          (* a bad cell fails alone; the rest of the grid still lands *)
          let mixed =
            P.grid_request
              ~benchmarks:[ "crc"; "no_such_benchmark" ]
              ~schemes:[ Config.Baseline ] ()
          in
          let cells2, s3 = ok_or_fail "mixed grid" (Client.grid client mixed) in
          Alcotest.(check int) "one cell errored" 1 s3.P.gs_errors;
          (match cells2 with
          | [ good; bad ] ->
              (match good.P.gc_outcome with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "good cell errored: %s" e);
              (match bad.P.gc_outcome with
              | Error _ -> ()
              | Ok _ -> Alcotest.fail "unknown benchmark produced a result")
          | _ -> Alcotest.fail "expected exactly two cells");
          (* an empty cross product is a whole-request error *)
          let empty =
            {
              P.g_benchmarks = [ "crc" ];
              g_schemes = [];
              g_sizes_kb = [ 32 ];
              g_ways = [ 32 ];
              g_line_bytes = 32;
              g_no_cache = false;
            }
          in
          match Client.grid client empty with
          | Ok _ -> Alcotest.fail "empty grid accepted"
          | Error msg ->
              Alcotest.(check bool) "diagnostic not empty" true
                (String.length msg > 0)))

let test_loadtest_grid_warm () =
  (* The load tester counts each streamed cell as its own response
     with its own source, so a warm grid measures per-cell reuse: the
     hit ratio over an all-hits run must be ~1.0. *)
  with_daemon ~workers:2 (fun _daemon endpoint ->
      let gr =
        P.grid_request ~benchmarks:[ "crc" ]
          ~schemes:[ Config.Baseline; Config.Way_memoization ]
          ()
      in
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      ignore (ok_or_fail "prewarm" (Client.grid client gr));
      Client.close client;
      let res =
        ok_or_fail "loadtest"
          (Wayplace.Serve.Loadtest.run
             {
               Wayplace.Serve.Loadtest.endpoint;
               connections = 2;
               depth = 2;
               total = 6;
               mix = [| P.Grid gr |];
             })
      in
      let open Wayplace.Serve.Loadtest in
      Alcotest.(check int) "six grids sent" 6 res.sent;
      Alcotest.(check int) "every cell ok" 12 res.ok;
      Alcotest.(check int) "nothing errored" 0 res.errored;
      Alcotest.(check bool)
        (Printf.sprintf "warm hit ratio %.3f >= 0.99" res.hit_ratio)
        true (res.hit_ratio >= 0.99))

let test_daemon_shutdown_mid_burst () =
  with_daemon ~workers:2 (fun daemon endpoint ->
      let client = ok_or_fail "connect" (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let n = 30 in
          let ids =
            List.init n (fun i ->
                let b, s = List.nth stress_mix (i mod List.length stress_mix) in
                Client.send client (P.Sim (P.sim_request ~benchmark:b ~scheme:s ())))
          in
          (* stop the daemon while the burst is in flight *)
          Daemon.stop daemon;
          (* every accepted request still gets a real answer *)
          let ok = ref 0 in
          List.iter
            (fun _ ->
              match Client.recv client with
              | Ok { P.reply = P.Sim_reply _; _ } -> incr ok
              | Ok { P.reply = P.Error_reply msg; _ } ->
                  Alcotest.failf "request failed during shutdown: %s" msg
              | Ok _ -> Alcotest.fail "unexpected reply"
              | Error msg -> Alcotest.failf "connection lost mid-drain: %s" msg)
            ids;
          Alcotest.(check int) "no accepted request lost" n !ok);
      (* new connections are refused once the listener is closed *)
      match Client.connect ~attempts:1 endpoint with
      | Ok c ->
          (* accepted by a race before the close: it must still be
             served or cleanly closed *)
          Client.close c
      | Error _ -> ())

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip (all variants)" `Quick
            test_request_roundtrip;
          Alcotest.test_case "response round-trip (all variants)" `Quick
            test_response_roundtrip;
          Alcotest.test_case "malformed requests are clean errors" `Quick
            test_request_decode_errors;
          Alcotest.test_case "config_of_sim validates geometry" `Quick
            test_config_of_sim;
          Alcotest.test_case "grid cells in canonical order" `Quick
            test_grid_cells_order;
        ] );
      ( "store",
        [
          Alcotest.test_case "hit is bit-identical to fresh computation" `Quick
            test_store_hit_bit_identical;
          Alcotest.test_case "corrupt entries evicted and recomputed" `Quick
            test_store_corruption_recovery;
          Alcotest.test_case "two stores share a directory safely" `Quick
            test_store_shared_directory;
          Alcotest.test_case "traversal keys never touch the disk" `Quick
            test_store_rejects_traversal_keys;
          Alcotest.test_case "unwritable directory is a clean error" `Quick
            test_store_unwritable_dir;
          Alcotest.test_case "keys ignore config sharing" `Quick
            test_store_key_ignores_sharing;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "compute, memoise, verify over a socket" `Quick
            test_daemon_basics;
          Alcotest.test_case "per-request error isolation" `Quick
            test_daemon_error_isolation;
          Alcotest.test_case "mp requests memoise on the full mix" `Quick
            test_daemon_mp;
          Alcotest.test_case "advise requests memoise on their inputs" `Quick
            test_daemon_advise;
          Alcotest.test_case "store survives a restart" `Quick
            test_daemon_persistence_across_restart;
          Alcotest.test_case "mp and advise survive a restart" `Quick
            test_daemon_mp_advise_persist;
          Alcotest.test_case "oversized line: error, then hang up" `Quick
            test_daemon_bounds_request_lines;
          Alcotest.test_case "grid batch: stream, share, memoise" `Quick
            test_daemon_grid;
          Alcotest.test_case "loadtest counts grid cells" `Quick
            test_loadtest_grid_warm;
        ] );
      ( "stress",
        [
          Alcotest.test_case "parallel clients match the sequential oracle"
            `Quick test_daemon_concurrent_clients_vs_oracle;
          Alcotest.test_case "identical in-flight requests coalesce" `Quick
            test_daemon_coalesces_inflight;
          Alcotest.test_case "graceful shutdown loses no accepted request"
            `Quick test_daemon_shutdown_mid_burst;
        ] );
    ]
