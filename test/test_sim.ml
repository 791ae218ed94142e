(* Tests for the machine configuration, data streams, D-memory, the
   fetch engine and the simulator. *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Data_stream = Wayplace.Sim.Data_stream
module Dmem = Wayplace.Sim.Dmem
module Fetch_engine = Wayplace.Sim.Fetch_engine
module Simulator = Wayplace.Sim.Simulator
module Runner = Wayplace.Sim.Runner
module Geometry = Wayplace.Cache.Geometry
module Instr = Wayplace.Isa.Instr
module Mibench = Wayplace.Workloads.Mibench
module Tracer = Wayplace.Workloads.Tracer

let wp16 = Config.Way_placement { area_bytes = 16 * 1024 }

(* --- Config --- *)

let test_config_xscale_defaults () =
  let c = Config.xscale Config.Baseline in
  Alcotest.(check int) "icache size" (32 * 1024) c.Config.icache.Geometry.size_bytes;
  Alcotest.(check int) "assoc" 32 c.Config.icache.Geometry.assoc;
  Alcotest.(check int) "line" 32 c.Config.icache.Geometry.line_bytes;
  Alcotest.(check int) "itlb" 32 c.Config.itlb_entries;
  Alcotest.(check int) "page" 1024 c.Config.page_bytes;
  Alcotest.(check int) "memory" 50 c.Config.memory_latency;
  Alcotest.(check bool) "validates" true (Config.validate c = Ok ())

let test_config_validation () =
  let base = Config.xscale Config.Baseline in
  let bad area = Config.with_scheme base (Config.Way_placement { area_bytes = area }) in
  Alcotest.(check bool) "zero area" true (Result.is_error (Config.validate (bad 0)));
  Alcotest.(check bool) "unaligned area" true
    (Result.is_error (Config.validate (bad 1500)));
  Alcotest.(check bool) "page-multiple ok" true (Config.validate (bad 2048) = Ok ())

let test_config_scheme_names () =
  Alcotest.(check string) "baseline" "baseline" (Config.scheme_name Config.Baseline);
  Alcotest.(check string) "wp" "way-placement(16KB)" (Config.scheme_name wp16);
  Alcotest.(check string) "wm" "way-memoization"
    (Config.scheme_name Config.Way_memoization)

(* --- Data_stream --- *)

let test_data_stream_deterministic () =
  let a = Data_stream.create ~seed:9 and b = Data_stream.create ~seed:9 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream"
      (Data_stream.next a (Instr.Random_within 65536))
      (Data_stream.next b (Instr.Random_within 65536))
  done

let test_data_stream_sequential () =
  let s = Data_stream.create ~seed:1 in
  let a0 = Data_stream.next s Instr.Sequential in
  let a1 = Data_stream.next s Instr.Sequential in
  Alcotest.(check int) "stride 4" 4 (a1 - a0);
  Alcotest.(check int) "starts at the data segment" Data_stream.base_address a0

let test_data_stream_aligned () =
  let s = Data_stream.create ~seed:2 in
  for _ = 1 to 100 do
    let a = Data_stream.next s (Instr.Random_within 4096) in
    Alcotest.(check int) "word aligned" 0 (a land 3)
  done

let test_data_stream_no_data () =
  let s = Data_stream.create ~seed:3 in
  Alcotest.check_raises "No_data" (Invalid_argument "Data_stream.next: No_data")
    (fun () -> ignore (Data_stream.next s Instr.No_data))

(* --- Dmem --- *)

let test_dmem_miss_then_hit () =
  let dmem = Dmem.create (Config.xscale Config.Baseline) in
  let stats = Stats.create () in
  let stall1 = Dmem.access dmem stats 0x4000_0000 ~write:false in
  Alcotest.(check bool) "cold miss stalls" true (stall1 >= 50);
  let stall2 = Dmem.access dmem stats 0x4000_0000 ~write:false in
  Alcotest.(check int) "hit has no stall" 0 stall2;
  Alcotest.(check int) "accesses" 2 stats.Stats.dcache_accesses;
  Alcotest.(check int) "one miss" 1 stats.Stats.dcache_misses;
  Alcotest.(check bool) "energy charged" true
    (Wayplace.Energy.Account.dcache_pj stats.Stats.account > 0.0)

(* --- Fetch_engine helpers --- *)

let code_base = Simulator.code_base

let engine scheme =
  Fetch_engine.create (Config.xscale scheme) ~code_base

let fetch_seq e stats addr n =
  for i = 0 to n - 1 do
    ignore (Fetch_engine.fetch e stats (addr + (4 * i)))
  done

(* --- Fetch_engine: baseline --- *)

let test_baseline_tag_comparisons () =
  let e = engine Config.Baseline in
  let stats = Stats.create () in
  (* Three fetches in distinct lines: 32 comparisons each. *)
  List.iter (fun a -> ignore (Fetch_engine.fetch e stats a))
    [ code_base; code_base + 32; code_base + 64 ];
  Alcotest.(check int) "3 x 32" 96 stats.Stats.tag_comparisons;
  Alcotest.(check int) "all misses" 3 stats.Stats.icache_misses

let test_baseline_same_line_elision () =
  (* The baseline machine also elides same-line tag checks (XScale
     sequential-access behaviour). *)
  let e = engine Config.Baseline in
  let stats = Stats.create () in
  fetch_seq e stats code_base 8;
  Alcotest.(check int) "7 of 8 fetches same-line" 7 stats.Stats.same_line_fetches;
  Alcotest.(check int) "32 comparisons total" 32 stats.Stats.tag_comparisons

let test_elision_ablation () =
  let config =
    Config.with_same_line_elision (Config.xscale Config.Baseline) false
  in
  let e = Fetch_engine.create config ~code_base in
  let stats = Stats.create () in
  fetch_seq e stats code_base 8;
  Alcotest.(check int) "no elision" 0 stats.Stats.same_line_fetches;
  Alcotest.(check int) "8 x 32" 256 stats.Stats.tag_comparisons

let test_baseline_miss_stall () =
  let e = engine Config.Baseline in
  let stats = Stats.create () in
  (* First fetch: TLB walk + cache miss. *)
  let stall = Fetch_engine.fetch e stats code_base in
  Alcotest.(check int) "walk + memory" 100 stall;
  let stall2 = Fetch_engine.fetch e stats (code_base + 32) in
  Alcotest.(check int) "same page, miss only" 50 stall2;
  let stall3 = Fetch_engine.fetch e stats code_base in
  Alcotest.(check int) "hit" 0 stall3

(* --- Fetch_engine: way-placement --- *)

let test_wp_area_predicate () =
  let e = engine wp16 in
  Alcotest.(check bool) "inside" true
    (Fetch_engine.way_placed_addr e (code_base + 1000));
  Alcotest.(check bool) "boundary" false
    (Fetch_engine.way_placed_addr e (code_base + (16 * 1024)));
  Alcotest.(check bool) "before code" false (Fetch_engine.way_placed_addr e 0);
  let b = engine Config.Baseline in
  Alcotest.(check bool) "baseline has no area" false
    (Fetch_engine.way_placed_addr b (code_base + 4))

let test_wp_hint_warmup_and_single_way () =
  let e = engine wp16 in
  let stats = Stats.create () in
  (* First fetch: hint cold (predicts normal), page is way-placed ->
     missed saving, full access. *)
  ignore (Fetch_engine.fetch e stats code_base);
  Alcotest.(check int) "missed saving once" 1 stats.Stats.hint_missed_saving;
  Alcotest.(check int) "full width" 32 stats.Stats.tag_comparisons;
  (* Next line: hint now predicts way-placed and is right: 1 compare. *)
  ignore (Fetch_engine.fetch e stats (code_base + 32));
  Alcotest.(check int) "correct wp" 1 stats.Stats.hint_correct_wp;
  Alcotest.(check int) "one more comparison" 33 stats.Stats.tag_comparisons;
  Alcotest.(check int) "wp fetch counted" 1 stats.Stats.wp_fetches

let test_wp_reaccess_penalty () =
  let e = engine wp16 in
  let stats = Stats.create () in
  (* Warm the hint inside the area... *)
  ignore (Fetch_engine.fetch e stats code_base);
  ignore (Fetch_engine.fetch e stats (code_base + 32));
  (* ...then jump outside the area: hint says way-placed, page is not:
     wasted probe + full access + 1 cycle. *)
  let outside = code_base + (20 * 1024) in
  let stall = Fetch_engine.fetch e stats outside in
  Alcotest.(check int) "re-access recorded" 1 stats.Stats.hint_reaccess;
  (* Stall = 1 (re-access) + TLB walk (50) + miss (50). *)
  Alcotest.(check int) "penalty cycle included" 101 stall

let test_wp_lines_land_in_designated_way () =
  let config = Config.xscale wp16 in
  let e = Fetch_engine.create config ~code_base in
  let stats = Stats.create () in
  (* Fetch several way-placed lines, then re-fetch: every re-fetch must
     hit through the single-way probe, proving the fill went to the
     designated way. *)
  let addrs = List.init 8 (fun i -> code_base + (i * 1024 * 2)) in
  List.iter (fun a -> ignore (Fetch_engine.fetch e stats a)) addrs;
  let before = stats.Stats.icache_misses in
  List.iter (fun a -> ignore (Fetch_engine.fetch e stats a)) addrs;
  Alcotest.(check int) "all re-fetches hit" before stats.Stats.icache_misses

let test_wp_flush () =
  let e = engine wp16 in
  let stats = Stats.create () in
  ignore (Fetch_engine.fetch e stats code_base);
  Fetch_engine.flush e;
  let stall = Fetch_engine.fetch e stats code_base in
  Alcotest.(check bool) "cold after flush" true (stall > 0)

(* --- Fetch_engine: way-memoization --- *)

let test_wm_links_and_counters () =
  let e = engine Config.Way_memoization in
  let stats = Stats.create () in
  (* Two line-crossing fetch pairs; second pass follows links. *)
  ignore (Fetch_engine.fetch e stats (code_base + 28));
  ignore (Fetch_engine.fetch e stats (code_base + 32));
  Alcotest.(check int) "link written" 1 stats.Stats.link_writes;
  Fetch_engine.reset_stream e;
  ignore (Fetch_engine.fetch e stats (code_base + 28));
  ignore (Fetch_engine.fetch e stats (code_base + 32));
  Alcotest.(check int) "link followed" 1 stats.Stats.link_follows

let test_wm_same_line_uses_memo_factor () =
  let e = engine Config.Way_memoization in
  let stats = Stats.create () in
  fetch_seq e stats code_base 8;
  let memo_icache = Wayplace.Energy.Account.icache_pj stats.Stats.account in
  let b = engine Config.Baseline in
  let bstats = Stats.create () in
  fetch_seq b bstats code_base 8;
  let base_icache = Wayplace.Energy.Account.icache_pj bstats.Stats.account in
  Alcotest.(check bool) "memo pays the 21% data overhead" true
    (memo_icache > base_icache)

(* A same-line sequential fetch on the filter-cache machine streams
   from the L0, so it must be charged the L0's (much smaller) data-word
   energy, not the 32KB L1's. *)
let test_filter_same_line_charges_l0 () =
  let e = engine (Config.Filter_cache { l0_bytes = 512 }) in
  let stats = Stats.create () in
  ignore (Fetch_engine.fetch e stats code_base);
  let before = Wayplace.Energy.Account.icache_pj stats.Stats.account in
  ignore (Fetch_engine.fetch e stats (code_base + 4));
  let delta = Wayplace.Energy.Account.icache_pj stats.Stats.account -. before in
  let params = Wayplace.Energy.Params.default in
  let l0_energies =
    Wayplace.Energy.Cam_energy.of_geometry params
      (Geometry.make ~size_bytes:512 ~assoc:1 ~line_bytes:32)
  in
  let l1_energies =
    Wayplace.Energy.Cam_energy.of_geometry params
      (Config.xscale Config.Baseline).Config.icache
  in
  Alcotest.(check (float 1e-9)) "elided fetch pays the L0 data word"
    l0_energies.Wayplace.Energy.Cam_energy.data_word_pj delta;
  Alcotest.(check bool) "L0 word strictly cheaper than L1 word" true
    (l0_energies.Wayplace.Energy.Cam_energy.data_word_pj
    < l1_energies.Wayplace.Energy.Cam_energy.data_word_pj)

(* --- Fetch_engine: way prediction --- *)

let test_waypred_counters () =
  let e = engine Config.Way_prediction in
  let stats = Stats.create () in
  ignore (Fetch_engine.fetch e stats code_base);
  Alcotest.(check int) "cold set counted wrong" 1 stats.Stats.waypred_wrong;
  Fetch_engine.reset_stream e;
  ignore (Fetch_engine.fetch e stats code_base);
  Alcotest.(check int) "retrained prediction" 1 stats.Stats.waypred_correct;
  Alcotest.(check int) "single comparison on correct" 33 stats.Stats.tag_comparisons

let test_waypred_penalty_cycle () =
  let e = engine Config.Way_prediction in
  let stats = Stats.create () in
  (* Warm the line and TLB first. *)
  ignore (Fetch_engine.fetch e stats code_base);
  Fetch_engine.reset_stream e;
  let stall = Fetch_engine.fetch e stats code_base in
  Alcotest.(check int) "correct prediction has no stall" 0 stall

(* --- Fetch_engine: filter cache --- *)

let filter_scheme = Config.Filter_cache { l0_bytes = 512 }

let test_filter_counters () =
  let e = engine filter_scheme in
  let stats = Stats.create () in
  ignore (Fetch_engine.fetch e stats code_base);
  Alcotest.(check int) "first access misses L0" 1 stats.Stats.l0_misses;
  Fetch_engine.reset_stream e;
  ignore (Fetch_engine.fetch e stats code_base);
  Alcotest.(check int) "second access hits L0" 1 stats.Stats.l0_hits

let test_filter_l0_validation () =
  let bad = Config.with_scheme (Config.xscale Config.Baseline)
      (Config.Filter_cache { l0_bytes = 48 }) in
  Alcotest.(check bool) "non power of two L0" true
    (Result.is_error (Config.validate bad))

(* --- leakage and drowsy --- *)

let leak_cfg scheme = Config.with_leakage (Config.xscale scheme) true

let crc_prep = lazy (Runner.prepare (Mibench.find "crc"))
let run_crc config = Runner.run_scheme (Lazy.force crc_prep) config

let test_leakage_validation () =
  let no_leak =
    Config.with_drowsy (Config.xscale Config.Baseline) (Some 100)
  in
  Alcotest.(check bool) "drowsy without leakage rejected" true
    (Result.is_error (Config.validate no_leak));
  let wm_drowsy =
    Config.with_drowsy (leak_cfg Config.Way_memoization) (Some 100)
  in
  Alcotest.(check bool) "drowsy unsupported for way-memoization" true
    (Result.is_error (Config.validate wm_drowsy));
  Alcotest.(check bool) "baseline drowsy fine" true
    (Config.validate (Config.with_drowsy (leak_cfg Config.Baseline) (Some 100))
    = Ok ())

let test_leakage_charged () =
  let off = run_crc (Config.xscale Config.Baseline) in
  let on = run_crc (leak_cfg Config.Baseline) in
  Alcotest.(check bool) "leakage adds i-cache energy" true
    (Stats.icache_energy_pj on > Stats.icache_energy_pj off);
  Alcotest.(check int) "cycles unaffected" off.Stats.cycles on.Stats.cycles

let test_drowsy_reduces_leakage () =
  let awake = run_crc (leak_cfg Config.Baseline) in
  let drowsy =
    run_crc (Config.with_drowsy (leak_cfg Config.Baseline) (Some 2000))
  in
  Alcotest.(check bool) "drowsy saves leakage" true
    (Stats.icache_energy_pj drowsy < Stats.icache_energy_pj awake);
  Alcotest.(check bool) "wakes recorded" true (drowsy.Stats.drowsy_wakes > 0);
  Alcotest.(check bool) "wake cycles charged" true
    (drowsy.Stats.cycles >= awake.Stats.cycles)

(* --- runtime area resizing --- *)

let test_resize_validation () =
  let e = engine Config.Baseline in
  Alcotest.(check bool) "baseline cannot resize" true
    (match Fetch_engine.resize_area e ~area_bytes:1024 with
    | () -> false
    | exception Invalid_argument _ -> true);
  let e = engine wp16 in
  Alcotest.(check bool) "bad size rejected" true
    (match Fetch_engine.resize_area e ~area_bytes:0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_resize_changes_area () =
  let e = engine wp16 in
  let far = code_base + (20 * 1024) in
  Alcotest.(check bool) "outside 16KB area" false (Fetch_engine.way_placed_addr e far);
  Fetch_engine.resize_area e ~area_bytes:(32 * 1024);
  Alcotest.(check bool) "inside 32KB area" true (Fetch_engine.way_placed_addr e far)

let test_resize_flushes () =
  let e = engine wp16 in
  let stats = Stats.create () in
  ignore (Fetch_engine.fetch e stats code_base);
  Fetch_engine.resize_area e ~area_bytes:(8 * 1024);
  let stall = Fetch_engine.fetch e stats code_base in
  Alcotest.(check bool) "cold after resize" true (stall > 0)

let test_resize_schedule_validation () =
  let prep = Runner.prepare Mibench.tiny in
  let config = Config.xscale wp16 in
  Alcotest.(check bool) "descending schedule rejected" true
    (match
       Simulator.run_with_resizes
         ~schedule:[ (10, 1024); (5, 2048) ]
         ~config ~program:prep.Runner.program ~layout:prep.Runner.placed_layout
         ~trace:prep.Runner.trace_large
     with
    | (_ : Stats.t) -> false
    | exception Invalid_argument _ -> true)

let test_resize_schedule_runs () =
  let prep = Runner.prepare Mibench.tiny in
  let config = Config.xscale wp16 in
  let n = Array.length prep.Runner.trace_large.Tracer.blocks in
  let stats =
    Simulator.run_with_resizes
      ~schedule:[ (n / 2, 1024) ]
      ~config ~program:prep.Runner.program ~layout:prep.Runner.placed_layout
      ~trace:prep.Runner.trace_large
  in
  let static = Runner.run_scheme prep config in
  Alcotest.(check int) "same fetches" static.Stats.fetches stats.Stats.fetches;
  Alcotest.(check bool) "flush caused extra misses" true
    (stats.Stats.icache_misses >= static.Stats.icache_misses)

let run_tiny_with_resizes prep ~schedule =
  Simulator.run_with_resizes ~schedule
    ~config:(Config.xscale wp16)
    ~program:prep.Runner.program ~layout:prep.Runner.placed_layout
    ~trace:prep.Runner.trace_large

let test_resize_schedule_empty () =
  let prep = Runner.prepare Mibench.tiny in
  let plain = Runner.run_scheme prep (Config.xscale wp16) in
  let resized = run_tiny_with_resizes prep ~schedule:[] in
  Alcotest.(check bool) "empty schedule is bit-identical to run" true
    (Stats.equal plain resized)

let test_resize_schedule_at_index_zero () =
  (* A resize before the first block is the same machine as one built
     with that area from the start: the flush hits cold caches. *)
  let prep = Runner.prepare Mibench.tiny in
  let resized = run_tiny_with_resizes prep ~schedule:[ (0, 2048) ] in
  let static =
    Simulator.run
      ~config:(Config.xscale (Config.Way_placement { area_bytes = 2048 }))
      ~program:prep.Runner.program ~layout:prep.Runner.placed_layout
      ~trace:prep.Runner.trace_large
  in
  Alcotest.(check bool) "equals a machine born with the new area" true
    (Stats.equal resized static)

(* Whether a schedule is refused before the run does any work: the
   run raises [Invalid_argument] and its probe has heard nothing. *)
let rejected_up_front prep config ~schedule =
  let events = ref 0 in
  let layout = Runner.layout_for prep config in
  match
    Simulator.run_probed
      ~probe:(fun _ -> incr events)
      ~schedule ~config ~program:prep.Runner.program ~layout
      ~trace:prep.Runner.trace_large
  with
  | (_ : Stats.t) -> false
  | exception Invalid_argument _ -> !events = 0

let test_resize_schedule_beyond_trace () =
  (* An entry the replay never reaches is refused, not silently
     dropped — on the fast path and the timeline path too. *)
  let prep = Runner.prepare Mibench.tiny in
  let n = Array.length prep.Runner.trace_large.Tracer.blocks in
  let config = Config.xscale wp16 in
  Alcotest.(check bool) "entry past the trace end rejected" true
    (rejected_up_front prep config ~schedule:[ (n / 2, 2048); (n, 1024) ]);
  Alcotest.(check bool) "fast path rejects it too" true
    (match run_tiny_with_resizes prep ~schedule:[ (n + 100, 1024) ] with
    | (_ : Stats.t) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "timeline rejects it too" true
    (match Runner.run_timeline ~schedule:[ (n + 5, 4096) ] prep config with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_resize_schedule_needs_way_placement () =
  let prep = Runner.prepare Mibench.tiny in
  let n = Array.length prep.Runner.trace_large.Tracer.blocks in
  List.iter
    (fun (scheme, at) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s refuses a resize at block %d"
           (Config.scheme_name scheme) at)
        true
        (rejected_up_front prep (Config.xscale scheme)
           ~schedule:[ (at, 4096) ]))
    [
      (Config.Baseline, n + 5);
      (Config.Baseline, n / 2);
      (Config.Way_memoization, n / 2);
      (Config.Filter_cache { l0_bytes = 512 }, 0);
    ]

let test_resize_schedule_negative_index () =
  let prep = Runner.prepare Mibench.tiny in
  Alcotest.(check bool) "negative block index rejected" true
    (rejected_up_front prep (Config.xscale wp16) ~schedule:[ (-1, 4096) ])

let test_resize_schedule_non_positive_area () =
  let prep = Runner.prepare Mibench.tiny in
  let n = Array.length prep.Runner.trace_large.Tracer.blocks in
  List.iter
    (fun schedule ->
      Alcotest.(check bool)
        "non-positive area rejected before the run" true
        (rejected_up_front prep (Config.xscale wp16) ~schedule))
    [ [ (n / 2, 0) ]; [ (1, 4096); (n - 1, -1024) ] ]

let test_resize_schedule_duplicate_index () =
  let prep = Runner.prepare Mibench.tiny in
  Alcotest.(check bool) "back-to-back resizes at one index rejected" true
    (match run_tiny_with_resizes prep ~schedule:[ (5, 1024); (5, 2048) ] with
    | (_ : Stats.t) -> false
    | exception Invalid_argument _ -> true)

(* --- Simulator --- *)

let prepare name = Runner.prepare (Mibench.find name)

let test_simulator_retires_all_instrs () =
  let prep = prepare "crc" in
  let stats = Runner.run_scheme prep (Config.xscale Config.Baseline) in
  Alcotest.(check int) "fetches = trace instrs"
    prep.Runner.trace_large.Tracer.dynamic_instrs
    stats.Stats.fetches;
  Alcotest.(check int) "retired = fetched" stats.Stats.fetches
    stats.Stats.retired_instrs

let test_simulator_deterministic () =
  let prep = prepare "crc" in
  let a = Runner.run_scheme prep (Config.xscale wp16) in
  let b = Runner.run_scheme prep (Config.xscale wp16) in
  Alcotest.(check int) "same cycles" a.Stats.cycles b.Stats.cycles;
  Alcotest.(check (float 1e-6)) "same energy"
    (Stats.total_energy_pj a) (Stats.total_energy_pj b)

let test_simulator_counters_consistent () =
  let prep = prepare "rawcaudio" in
  let stats = Runner.run_scheme prep (Config.xscale wp16) in
  Alcotest.(check int) "fetch breakdown sums" stats.Stats.fetches
    (stats.Stats.same_line_fetches + stats.Stats.wp_fetches
    + stats.Stats.full_fetches);
  Alcotest.(check int) "hits + misses = non-same-line fetches"
    (stats.Stats.fetches - stats.Stats.same_line_fetches)
    (stats.Stats.icache_hits + stats.Stats.icache_misses);
  Alcotest.(check bool) "cycles >= instrs" true
    (stats.Stats.cycles >= stats.Stats.retired_instrs)

let test_simulator_dside_identical_across_schemes () =
  let prep = prepare "rawdaudio" in
  let a = Runner.run_scheme prep (Config.xscale Config.Baseline) in
  let b = Runner.run_scheme prep (Config.xscale Config.Way_memoization) in
  Alcotest.(check int) "same d-accesses" a.Stats.dcache_accesses b.Stats.dcache_accesses;
  Alcotest.(check int) "same d-misses" a.Stats.dcache_misses b.Stats.dcache_misses

let test_runner_baseline_self_comparison () =
  let prep = prepare "crc" in
  let c = Runner.compare_to_baseline prep (Config.xscale Config.Baseline) in
  Alcotest.(check (float 1e-9)) "energy ratio 1" 1.0 c.Runner.norm_icache_energy;
  Alcotest.(check (float 1e-9)) "ED ratio 1" 1.0 c.Runner.norm_ed

let test_runner_means () =
  Alcotest.(check (float 1e-9)) "arithmetic" 2.0 (Runner.arithmetic_mean [ 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geometric" 2.0 (Runner.geometric_mean [ 1.0; 4.0 ]);
  Alcotest.(check bool) "empty rejected" true
    (match Runner.arithmetic_mean [] with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive rejected" true
    (match Runner.geometric_mean [ 0.0 ] with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true)

let test_runner_layout_selection () =
  (* Way-placement runs the placed layout; baseline the original. *)
  let prep = prepare "blowfish_e" in
  Alcotest.(check bool) "layouts differ" true
    (Wayplace.Layout.Binary_layout.order prep.Runner.original_layout
    <> Wayplace.Layout.Binary_layout.order prep.Runner.placed_layout)

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "xscale defaults" `Quick test_config_xscale_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "scheme names" `Quick test_config_scheme_names;
        ] );
      ( "data_stream",
        [
          Alcotest.test_case "deterministic" `Quick test_data_stream_deterministic;
          Alcotest.test_case "sequential" `Quick test_data_stream_sequential;
          Alcotest.test_case "alignment" `Quick test_data_stream_aligned;
          Alcotest.test_case "no_data" `Quick test_data_stream_no_data;
        ] );
      ("dmem", [ Alcotest.test_case "miss then hit" `Quick test_dmem_miss_then_hit ]);
      ( "fetch_engine",
        [
          Alcotest.test_case "baseline comparisons" `Quick test_baseline_tag_comparisons;
          Alcotest.test_case "baseline same-line elision" `Quick test_baseline_same_line_elision;
          Alcotest.test_case "elision ablation" `Quick test_elision_ablation;
          Alcotest.test_case "baseline stalls" `Quick test_baseline_miss_stall;
          Alcotest.test_case "area predicate" `Quick test_wp_area_predicate;
          Alcotest.test_case "hint warm-up" `Quick test_wp_hint_warmup_and_single_way;
          Alcotest.test_case "re-access penalty" `Quick test_wp_reaccess_penalty;
          Alcotest.test_case "designated-way fills" `Quick test_wp_lines_land_in_designated_way;
          Alcotest.test_case "flush" `Quick test_wp_flush;
          Alcotest.test_case "memo links" `Quick test_wm_links_and_counters;
          Alcotest.test_case "way-prediction counters" `Quick test_waypred_counters;
          Alcotest.test_case "way-prediction penalty" `Quick test_waypred_penalty_cycle;
          Alcotest.test_case "filter counters" `Quick test_filter_counters;
          Alcotest.test_case "filter L0 validation" `Quick test_filter_l0_validation;
          Alcotest.test_case "leakage validation" `Quick test_leakage_validation;
          Alcotest.test_case "leakage charged" `Quick test_leakage_charged;
          Alcotest.test_case "drowsy saves leakage" `Quick test_drowsy_reduces_leakage;
          Alcotest.test_case "resize validation" `Quick test_resize_validation;
          Alcotest.test_case "resize area predicate" `Quick test_resize_changes_area;
          Alcotest.test_case "resize flushes" `Quick test_resize_flushes;
          Alcotest.test_case "resize schedule validation" `Quick test_resize_schedule_validation;
          Alcotest.test_case "resize schedule runs" `Quick test_resize_schedule_runs;
          Alcotest.test_case "resize schedule: empty" `Quick test_resize_schedule_empty;
          Alcotest.test_case "resize schedule: index 0" `Quick test_resize_schedule_at_index_zero;
          Alcotest.test_case "resize schedule: beyond trace" `Quick test_resize_schedule_beyond_trace;
          Alcotest.test_case "resize schedule: duplicate index" `Quick test_resize_schedule_duplicate_index;
          Alcotest.test_case "resize schedule: needs way-placement" `Quick
            test_resize_schedule_needs_way_placement;
          Alcotest.test_case "resize schedule: negative index" `Quick
            test_resize_schedule_negative_index;
          Alcotest.test_case "resize schedule: non-positive area" `Quick
            test_resize_schedule_non_positive_area;
          Alcotest.test_case "memo data overhead" `Quick test_wm_same_line_uses_memo_factor;
          Alcotest.test_case "filter same-line uses L0 energy" `Quick
            test_filter_same_line_charges_l0;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "retires everything" `Quick test_simulator_retires_all_instrs;
          Alcotest.test_case "deterministic" `Quick test_simulator_deterministic;
          Alcotest.test_case "counter consistency" `Quick test_simulator_counters_consistent;
          Alcotest.test_case "d-side scheme-invariant" `Quick test_simulator_dside_identical_across_schemes;
          Alcotest.test_case "baseline self-comparison" `Quick test_runner_baseline_self_comparison;
          Alcotest.test_case "means" `Quick test_runner_means;
          Alcotest.test_case "layout selection" `Quick test_runner_layout_selection;
        ] );
    ]
