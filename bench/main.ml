(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6), plus the ablations listed in
   DESIGN.md Section 5 and a bechamel micro-benchmark of the core data
   structures.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig4a fig6b  # selected experiments
     dune exec bench/main.exe -- list         # available ids

   Absolute numbers are not expected to match the paper (the substrate
   is a simulator, not the authors' testbed); the shapes — who wins, by
   roughly what factor, where the anomalies sit — are the reproduction
   target.  EXPERIMENTS.md records paper-vs-measured for every id.

   Every experiment declares its (benchmark x config) job grid up
   front; the driver fans the union of the requested grids out on a
   Sweep domain pool (-j N, default all cores; -j 1 is the sequential
   fallback), then the printing functions replay against the warm
   cache.  Results are bit-identical either way. *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner
module Simulator = Wayplace.Sim.Simulator
module Geometry = Wayplace.Cache.Geometry
module Mibench = Wayplace.Workloads.Mibench
module Tracer = Wayplace.Workloads.Tracer
module Sweep = Wayplace.Sim.Sweep
module Report = Wayplace.Sim.Report

let kb n = n * 1024
let wp n = Config.Way_placement { area_bytes = kb n }
let geometry ~size_kb ~ways = Geometry.make ~size_bytes:(kb size_kb) ~assoc:ways ~line_bytes:32

(* ------------------------------------------------------------------ *)
(* One sweep engine for the whole process: figures share baselines, so *)
(* every (benchmark, config) pair is prepared and simulated once, and  *)
(* the driver warms the cache in parallel before printing.             *)

let requested_workers = ref None

let sweep =
  lazy
    (Sweep.create ?workers:!requested_workers ~progress:Sweep.print_progress ())

let prep name = Sweep.prepared (Lazy.force sweep) name
let job benchmark config = { Sweep.benchmark; config }
let run name config = Sweep.stats (Lazy.force sweep) (job name config)

(* Job grids: [grid] is the raw benchmark x config product, [cmp] adds
   the baseline partner every normalised metric divides by. *)
let grid benchmarks configs =
  List.concat_map (fun c -> List.map (fun b -> job b c) benchmarks) configs

let cmp benchmarks configs = Sweep.with_baselines (grid benchmarks configs)
let no_jobs () = []

(* A cell against its baseline partner, and the two figure metrics. *)
let normalised name config =
  Runner.normalise
    ~baseline:(run name (Config.with_scheme config Config.Baseline))
    (run name config)

let norm_energy name config = (normalised name config).Runner.norm_icache_energy
let norm_ed name config = (normalised name config).Runner.norm_ed

let suite = Mibench.names
let mean = Runner.arithmetic_mean
let suite_mean f = mean (List.map f suite)
let pct x = 100.0 *. x

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

(* ------------------------------------------------------------------ *)
(* tab1: echo of the simulated machine (paper Table 1).                *)

let tab1 () =
  header "Table 1 - baseline system configuration";
  Format.printf "%a@." Config.pp (Config.xscale Config.Baseline);
  Printf.printf
    "pipeline: in-order single issue, 1 ALU + 1 MAC + 1 load/store\n\
     btb: 128 entries, 4-cycle mispredict penalty\n\
     data buffers: modelled through the 50-cycle refill path\n%!"

(* ------------------------------------------------------------------ *)
(* fig1: the worked example (12 vs 3 tag comparisons).                 *)

let fig1 () =
  header "Figure 1 - way-placement example (2 sets x 4 ways)";
  let module Cam = Wayplace.Cache.Cam_cache in
  let g = Geometry.make ~size_bytes:64 ~assoc:4 ~line_bytes:8 in
  let addrs = [ ("add", 0x14); ("br", 0x28); ("mul", 0x88) ] in
  let normal = Cam.create g ~replacement:Wayplace.Cache.Replacement.Round_robin in
  let placed = Cam.create g ~replacement:Wayplace.Cache.Replacement.Round_robin in
  List.iter
    (fun (_, a) ->
      ignore (Cam.fill normal a Cam.Victim_by_policy);
      ignore (Cam.fill placed a (Cam.Forced_way (Geometry.way_of_addr g a))))
    addrs;
  let count cache probe =
    List.fold_left
      (fun acc (_, a) -> acc + (probe cache a).Cam.tag_comparisons)
      0 addrs
  in
  let normal_cmp = count normal Cam.lookup_full in
  let placed_cmp =
    count placed (fun c a -> Cam.lookup_way c a ~way:(Geometry.way_of_addr g a))
  in
  List.iter
    (fun (name, a) ->
      Printf.printf "  %-3s @0x%02x  set %d  tag %2d  designated way %d\n" name a
        (Geometry.set_index g a) (Geometry.tag_of g a) (Geometry.way_of_addr g a))
    addrs;
  Printf.printf "  normal access:        %2d tag comparisons   (paper: 12)\n" normal_cmp;
  Printf.printf "  way-placement access: %2d tag comparisons   (paper: 3)\n%!" placed_cmp

(* ------------------------------------------------------------------ *)
(* fig4: per-benchmark energy and ED at 32KB/32-way, 16KB area.        *)

let fig4_config scheme = Config.xscale scheme

let fig4_jobs () =
  cmp suite [ fig4_config Config.Way_memoization; fig4_config (wp 16) ]

let fig4a () =
  header
    "Figure 4(a) - normalised i-cache energy per benchmark\n\
     (32KB 32-way i-cache, 16KB way-placement area; % of baseline)";
  Printf.printf "%-12s %14s %14s\n" "benchmark" "way-memo" "way-placement";
  List.iter
    (fun name ->
      Printf.printf "%-12s %13.1f%% %13.1f%%\n" name
        (pct (norm_energy name (fig4_config Config.Way_memoization)))
        (pct (norm_energy name (fig4_config (wp 16)))))
    suite;
  Printf.printf "%-12s %13.1f%% %13.1f%%\n" "average"
    (pct (suite_mean (fun n -> norm_energy n (fig4_config Config.Way_memoization))))
    (pct (suite_mean (fun n -> norm_energy n (fig4_config (wp 16)))));
  Printf.printf
    "paper [recon]: way-memoization ~68%%, way-placement ~52%% on average\n%!"

let fig4b () =
  header
    "Figure 4(b) - ED product per benchmark\n\
     (32KB 32-way i-cache, 16KB way-placement area; baseline = 1.0)";
  Printf.printf "%-12s %14s %14s\n" "benchmark" "way-memo" "way-placement";
  List.iter
    (fun name ->
      Printf.printf "%-12s %14.3f %14.3f\n" name
        (norm_ed name (fig4_config Config.Way_memoization))
        (norm_ed name (fig4_config (wp 16))))
    suite;
  Printf.printf "%-12s %14.3f %14.3f\n" "average"
    (suite_mean (fun n -> norm_ed n (fig4_config Config.Way_memoization)))
    (suite_mean (fun n -> norm_ed n (fig4_config (wp 16))));
  Printf.printf "paper: way-placement average ED ~0.93, at least two benchmarks below 0.90\n%!"

(* ------------------------------------------------------------------ *)
(* fig5: way-placement area sweep at 32KB/32-way.                      *)

let fig5_areas = [ 16; 8; 4; 2; 1 ]

let fig5_jobs () =
  cmp suite
    (fig4_config Config.Way_memoization
    :: List.map (fun a -> fig4_config (wp a)) fig5_areas)

let fig5a () =
  header
    "Figure 5(a) - normalised i-cache energy vs way-placement area\n\
     (32KB 32-way i-cache, suite average; % of baseline)";
  Printf.printf "%-18s %10s\n" "scheme" "energy";
  Printf.printf "%-18s %9.1f%%\n" "way-memoization"
    (pct (suite_mean (fun n -> norm_energy n (fig4_config Config.Way_memoization))));
  List.iter
    (fun a ->
      Printf.printf "%-18s %9.1f%%\n"
        (Printf.sprintf "area %2dKB" a)
        (pct (suite_mean (fun n -> norm_energy n (fig4_config (wp a))))))
    fig5_areas;
  Printf.printf
    "paper [recon]: 52%% at 16KB degrading to ~56%% at 1KB; way-memoization 68%%\n%!"

let fig5b () =
  header "Figure 5(b) - ED product vs way-placement area (suite average)";
  Printf.printf "%-18s %10s\n" "scheme" "ED";
  Printf.printf "%-18s %10.3f\n" "way-memoization"
    (suite_mean (fun n -> norm_ed n (fig4_config Config.Way_memoization)));
  List.iter
    (fun a ->
      Printf.printf "%-18s %10.3f\n"
        (Printf.sprintf "area %2dKB" a)
        (suite_mean (fun n -> norm_ed n (fig4_config (wp a)))))
    fig5_areas;
  Printf.printf "paper: ED stays below way-memoization at every size (0.93..0.94)\n%!"

(* ------------------------------------------------------------------ *)
(* fig6: cache size x associativity grid with two area sizes.          *)

let fig6_sizes = [ 8; 16; 32 ]
let fig6_ways = [ 8; 16; 32 ]

let fig6_jobs () =
  cmp suite
    (List.concat_map
       (fun size_kb ->
         List.concat_map
           (fun ways ->
             let g = geometry ~size_kb ~ways in
             List.map
               (fun s -> Config.with_icache (Config.xscale s) g)
               [ Config.Way_memoization; wp 16; wp 8 ])
           fig6_ways)
       fig6_sizes)

let fig6_row metric size_kb ways =
  let g = geometry ~size_kb ~ways in
  let mk scheme = Config.with_icache (Config.xscale scheme) g in
  ( suite_mean (fun n -> metric n (mk Config.Way_memoization)),
    suite_mean (fun n -> metric n (mk (wp 16))),
    suite_mean (fun n -> metric n (mk (wp 8))) )

let fig6 metric ~title ~fmt ~paper =
  header title;
  Printf.printf "%-12s %12s %12s %12s\n" "config" "way-memo" "wp(16KB)" "wp(8KB)";
  List.iter
    (fun size_kb ->
      List.iter
        (fun ways ->
          let wm, a16, a8 = fig6_row metric size_kb ways in
          Printf.printf "%-12s %12s %12s %12s\n"
            (Printf.sprintf "%2dKB/%2dway" size_kb ways)
            (fmt wm) (fmt a16) (fmt a8))
        fig6_ways)
    fig6_sizes;
  Printf.printf "%s\n%!" paper

let fig6a () =
  fig6 norm_energy
    ~title:
      "Figure 6(a) - normalised i-cache energy across cache geometries\n\
       (suite average; % of baseline)"
    ~fmt:(fun v -> Printf.sprintf "%.1f%%" (pct v))
    ~paper:
      "paper [recon]: >=59% saving for every area at the best 32-way config;\n\
       way-memoization INCREASES energy at the low-associativity corner\n\
       while way-placement still saves (paper quotes ~82% there)"

let fig6b () =
  fig6 norm_ed
    ~title:"Figure 6(b) - ED product across cache geometries (suite average)"
    ~fmt:(fun v -> Printf.sprintf "%.3f" v)
    ~paper:
      "paper [recon]: best ED ~0.80 at the 16KB 32-way config (16KB/8KB areas);\n\
       worst way-placement ED ~0.98, still below baseline and way-memoization"

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md Section 5).                                    *)

let ablation_suite = [ "crc"; "susan_c"; "rijndael_e"; "tiff2bw"; "ispell" ]

let ablate_sameline_jobs () =
  cmp ablation_suite
    [
      Config.xscale (wp 16);
      Config.with_same_line_elision (Config.xscale (wp 16)) false;
    ]

let ablate_sameline () =
  header
    "Ablation - same-line tag-check elision off\n\
     (both schemes and the baseline lose sequential elision)";
  Printf.printf "%-12s %16s %16s\n" "benchmark" "wp (elision on)" "wp (elision off)";
  List.iter
    (fun name ->
      let on = norm_energy name (Config.xscale (wp 16)) in
      let off =
        norm_energy name (Config.with_same_line_elision (Config.xscale (wp 16)) false)
      in
      Printf.printf "%-12s %15.1f%% %15.1f%%\n" name (pct on) (pct off))
    ablation_suite;
  Printf.printf
    "Without elision the baseline pays full tag energy on every fetch, so\n\
     way-placement's relative saving grows - the elision is conservative.\n%!"

let ablate_replacement_jobs () =
  cmp ablation_suite
    [
      Config.xscale (wp 16);
      Config.with_replacement (Config.xscale (wp 16)) Wayplace.Cache.Replacement.Lru;
    ]

let ablate_replacement () =
  header "Ablation - round-robin (XScale) vs LRU replacement";
  Printf.printf "%-12s %16s %16s\n" "benchmark" "wp rr" "wp lru";
  List.iter
    (fun name ->
      let rr = norm_energy name (Config.xscale (wp 16)) in
      let lru =
        norm_energy name
          (Config.with_replacement (Config.xscale (wp 16)) Wayplace.Cache.Replacement.Lru)
      in
      Printf.printf "%-12s %15.1f%% %15.1f%%\n" name (pct rr) (pct lru))
    ablation_suite;
  Printf.printf "%!"

let ablate_invalidation_jobs () =
  let base =
    Config.with_icache (Config.xscale Config.Way_memoization)
      (geometry ~size_kb:8 ~ways:32)
  in
  cmp ablation_suite
    [ base; Config.with_memo_invalidation base Wayplace.Cache.Way_memo.Precise ]

let ablate_invalidation () =
  header
    "Ablation - way-memoization link invalidation: flash-clear vs precise\n\
     (precise needs per-line reverse pointers; an idealised upper bound)";
  let g = geometry ~size_kb:8 ~ways:32 in
  Printf.printf "%-12s %16s %16s  (8KB 32-way)\n" "benchmark" "flash-clear" "precise";
  List.iter
    (fun name ->
      let base = Config.with_icache (Config.xscale Config.Way_memoization) g in
      let flash = norm_energy name base in
      let precise =
        norm_energy name
          (Config.with_memo_invalidation base Wayplace.Cache.Way_memo.Precise)
      in
      Printf.printf "%-12s %15.1f%% %15.1f%%\n" name (pct flash) (pct precise))
    ablation_suite;
  Printf.printf "%!"

let ablate_hint_jobs () = grid ablation_suite [ Config.xscale (wp 16) ]

let ablate_hint () =
  header
    "Ablation - the way-hint bit (paper Section 4.1)\n\
     accuracy, re-access penalties, and energy left on the table";
  Printf.printf "%-12s %10s %12s %14s\n" "benchmark" "accuracy" "re-accesses"
    "missed savings";
  List.iter
    (fun name ->
      let stats = run name (Config.xscale (wp 16)) in
      Printf.printf "%-12s %9.2f%% %12d %14d\n" name
        (pct (Stats.hint_accuracy stats))
        stats.Stats.hint_reaccess stats.Stats.hint_missed_saving)
    ablation_suite;
  Printf.printf
    "The hint is right whenever execution stays inside or outside the area,\n\
     which the chain layout makes the common case (paper: \"very accurate\").\n%!"

(* The self-profiled run is a bespoke Simulator.run (oracle layout),
   outside the sweep grid; only the standard runs prefetch. *)
let ablate_profile_jobs () = cmp ablation_suite [ Config.xscale (wp 16) ]

let ablate_profile () =
  header
    "Ablation - profile fidelity: train on small input vs self-profiled\n\
     (way-placement layout built from the evaluation input itself)";
  Printf.printf "%-12s %16s %16s\n" "benchmark" "small profile" "self profile";
  List.iter
    (fun name ->
      let p = prep name in
      let program = p.Runner.program in
      let standard = norm_energy name (Config.xscale (wp 16)) in
      let oracle_profile = Tracer.profile program Tracer.Large in
      let compiled = Wayplace.compile program.Wayplace.Workloads.Codegen.graph oracle_profile in
      let config = Config.xscale (wp 16) in
      let scheme =
        Simulator.run ~config ~program ~layout:compiled.Wayplace.layout
          ~trace:p.Runner.trace_large
      in
      let baseline = run name (Config.xscale Config.Baseline) in
      let self = (Runner.normalise ~baseline scheme).Runner.norm_icache_energy in
      Printf.printf "%-12s %15.1f%% %15.1f%%\n" name (pct standard) (pct self))
    ablation_suite;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's evaluation (Section 7 related work). *)

let ext_schemes =
  [
    ("way-placement 16KB", wp 16);
    ("way-memoization", Config.Way_memoization);
    ("way-prediction", Config.Way_prediction);
    ("filter-cache 512B", Config.Filter_cache { l0_bytes = 512 });
  ]

let ext_comparators_jobs () =
  cmp suite (List.map (fun (_, s) -> Config.xscale s) ext_schemes)

let ext_comparators () =
  header
    "Extension - all comparator schemes at 32KB/32-way
     (way prediction: Inoue et al. [6]; filter cache: Kin et al. [11])";
  let schemes = ext_schemes in
  Printf.printf "%-20s %10s %10s %12s
" "scheme" "energy" "ED" "cycles";
  List.iter
    (fun (label, scheme) ->
      let config = Config.xscale scheme in
      let e = suite_mean (fun n -> norm_energy n config) in
      let ed = suite_mean (fun n -> norm_ed n config) in
      let cyc = suite_mean (fun n -> (normalised n config).Runner.norm_cycles) in
      Printf.printf "%-20s %9.1f%% %10.3f %12.4f
" label (pct e) ed cyc)
    schemes;
  Printf.printf
    "Way prediction pays recovery cycles on mispredicts; the filter cache
     pays a cycle on every L0 miss.  Way-placement is the only scheme with
     no ISA change, no extra storage and no performance risk.
%!"

let ext_drowsy_rows =
  let with_leak config = Config.with_leakage config true in
  let drowsy config = Config.with_drowsy (with_leak config) (Some 2000) in
  [
    ("baseline + leakage", with_leak (Config.xscale Config.Baseline));
    ("wp 16KB + leakage", with_leak (Config.xscale (wp 16)));
    ("baseline + drowsy", drowsy (Config.xscale Config.Baseline));
    ("wp 16KB + drowsy", drowsy (Config.xscale (wp 16)));
  ]

let ext_drowsy_jobs () = grid ablation_suite (List.map snd ext_drowsy_rows)

let ext_drowsy () =
  header
    "Extension - combining way-placement with drowsy lines
     (leakage accounting on; Section 7: the schemes are orthogonal)";
  let rows = ext_drowsy_rows in
  let base_cfg = List.assoc "baseline + leakage" rows in
  let subset = ablation_suite in
  Printf.printf "%-20s %14s %10s
" "configuration" "icache energy" "wakes";
  List.iter
    (fun (label, config) ->
      let e =
        mean
          (List.map
             (fun n ->
               (Runner.normalise ~baseline:(run n base_cfg) (run n config))
                 .Runner.norm_icache_energy)
             subset)
      in
      let wakes =
        mean (List.map (fun n -> float_of_int (run n config).Stats.drowsy_wakes) subset)
      in
      Printf.printf "%-20s %13.1f%% %10.0f
" label (pct e) wakes)
    rows;
  Printf.printf
    "Drowsy mode removes most leakage (cold lines sleep); way-placement
     removes dynamic tag energy; together they stack, as Section 7 argues.
%!"

(* ------------------------------------------------------------------ *)
(* mp: multiprogramming quantum sweep (ROADMAP item 4).                *)
(* Energy and ED as a function of quantum length x mix composition x   *)
(* placement coverage; the headline question is how many context       *)
(* switches per million instructions the way-placement win survives.   *)
(* A multiprogrammed run is not a (benchmark x config) Sweep job, so   *)
(* the cells are memoised locally and computed at print time.          *)

module Mp = Wayplace.Mp

let mp_mixes =
  [
    ("crc+sha+bitcount", [ "crc"; "sha"; "bitcount" ]);
    ("susan+cjpeg+patricia", [ "susan_c"; "cjpeg"; "patricia" ]);
    ("tiff+ispell+rijndael", [ "tiff2bw"; "ispell"; "rijndael_e" ]);
  ]

let mp_quanta = [ 2_000; 20_000; 200_000; 0 ]

let mp_cache : (string * string * string * int, Mp.Machine.result) Hashtbl.t =
  Hashtbl.create 64

let mp_run ~label ~names ~coverage ~scheme ~quantum =
  let key =
    (label, Mp.Mix.coverage_name coverage, Config.scheme_name scheme, quantum)
  in
  match Hashtbl.find_opt mp_cache key with
  | Some r -> r
  | None ->
      let mix =
        match Mp.Mix.of_names ~coverage names with
        | Ok m -> m
        | Error msg -> failwith msg
      in
      let config = Config.xscale scheme in
      let options =
        { Mp.Machine.default_options with quantum_cycles = quantum }
      in
      let r = Mp.Machine.run ~config ~options mix in
      (* The attribution law the differ also enforces: per-process +
         system counters sum to the aggregate, integer by integer. *)
      if not (Mp.Machine.conserves r) then
        failwith (label ^ ": per-process attribution does not sum to aggregate");
      Hashtbl.replace mp_cache key r;
      r

(* Normalised against the baseline scheme on the SAME mix at the SAME
   quantum, so the kernel and switch costs cancel and the number
   isolates what placement still buys under contention. *)
let mp_cell ~label ~names ~coverage ~quantum =
  let base =
    mp_run ~label ~names ~coverage:Mp.Mix.All_placed ~scheme:Config.Baseline
      ~quantum
  in
  let r = mp_run ~label ~names ~coverage ~scheme:(wp 16) ~quantum in
  let c =
    Runner.normalise ~baseline:base.Mp.Machine.aggregate r.Mp.Machine.aggregate
  in
  (c.Runner.norm_icache_energy, c.Runner.norm_ed, r)

let mp_quantum_sweep () =
  header
    "Multiprogramming - energy/ED vs quantum x mix x placement coverage\n\
     (3 processes per mix, interrupt kernel on, shared BTB, round-robin;\n\
     normalised to the baseline scheme on the same mix at the same\n\
     quantum, so switch costs cancel)";
  Printf.printf "%-22s %8s %9s %8s %8s %8s %8s %8s %8s\n" "mix" "quantum"
    "sw/Minst" "E(all)" "E(half)" "E(none)" "ED(all)" "ED(half)" "ED(none)";
  List.iter
    (fun (label, names) ->
      List.iter
        (fun quantum ->
          let e_all, ed_all, r_all =
            mp_cell ~label ~names ~coverage:Mp.Mix.All_placed ~quantum
          in
          let e_half, ed_half, _ =
            mp_cell ~label ~names ~coverage:Mp.Mix.Half_placed ~quantum
          in
          let e_none, ed_none, _ =
            mp_cell ~label ~names ~coverage:Mp.Mix.None_placed ~quantum
          in
          Printf.printf
            "%-22s %8s %9.1f %7.1f%% %7.1f%% %7.1f%% %8.3f %8.3f %8.3f\n"
            label
            (if quantum <= 0 then "inf" else string_of_int quantum)
            (Mp.Machine.switches_per_million r_all)
            (pct e_all) (pct e_half) (pct e_none) ed_all ed_half ed_none)
        mp_quanta)
    mp_mixes;
  (* The erosion headline: saving with everything placed, undisturbed
     vs at the highest switch rate measured. *)
  List.iter
    (fun (label, names) ->
      let e_inf, _, _ =
        mp_cell ~label ~names ~coverage:Mp.Mix.All_placed ~quantum:0
      in
      let e_hot, _, r_hot =
        mp_cell ~label ~names ~coverage:Mp.Mix.All_placed ~quantum:2_000
      in
      Printf.printf
        "%-22s saving %4.1f%% undisturbed -> %4.1f%% at %.0f switches/M instrs\n"
        label
        (pct (1.0 -. e_inf))
        (pct (1.0 -. e_hot))
        (Mp.Machine.switches_per_million r_hot))
    mp_mixes;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* advise: the static oracle vs measured minimal ways (ROADMAP item 3).*)
(* The advisor's interprocedural bound says how many ways the layout   *)
(* provably needs; the measured column sweeps power-of-two areas and   *)
(* reports the smallest that misses no more than the full cache. The   *)
(* candidate areas are ordinary sweep jobs, so they warm in parallel   *)
(* and are shared with fig5.                                           *)

module Advise = Wayplace.Advise

let advise_candidate_ways = [ 1; 2; 4; 8; 16; 32 ]

let advise_jobs () =
  grid suite (List.map (fun k -> Config.xscale (wp k)) advise_candidate_ways)

let advise_table () =
  header
    "Static placement advisor - static minimal-ways bound vs measured\n\
     (32KB 32-way i-cache, 1KB pages; measured = smallest power-of-two\n\
     area whose misses match the full 32-way area)";
  let g = geometry ~size_kb:32 ~ways:32 in
  let energy = (Config.xscale Config.Baseline).Config.energy in
  Printf.printf "%-12s %7s %10s %9s %9s %9s  %s\n" "benchmark" "static"
    "area KB" "measured" "findings" "conflicts" "verdict";
  List.iter
    (fun name ->
      let p = prep name in
      let report =
        Advise.Advisor.analyze ~benchmark:name
          ~graph:p.Runner.program.Wayplace.Workloads.Codegen.graph
          ~profile:p.Runner.profile_small ~trace:p.Runner.trace_large
          ~layout:p.Runner.placed_layout ~geometry:g ~page_bytes:1024
          ~area_bytes:(kb 16) ~energy ()
      in
      let s = report.Advise.Advisor.static_min_ways in
      let full = (run name (Config.xscale (wp 32))).Stats.icache_misses in
      let measured =
        List.find_opt
          (fun k ->
            (run name (Config.xscale (wp k))).Stats.icache_misses <= full)
          advise_candidate_ways
      in
      let replay = report.Advise.Advisor.replay in
      let conflicts =
        replay.Advise.Oracle.area_misses
        - replay.Advise.Oracle.area_distinct_lines
      in
      let measured_s, verdict =
        match measured with
        | None -> ("-", "no candidate matches the full cache")
        | Some m ->
            ( string_of_int m,
              if s >= m then "bound covers miss-parity"
              else "transition misses above the bound" )
      in
      Printf.printf "%-12s %7d %10d %9s %9d %9d  %s\n" name s
        (Advise.Oracle.area_for ~geometry:g ~page_bytes:1024 ~ways:s / 1024)
        measured_s
        (List.length report.Advise.Advisor.findings)
        conflicts verdict)
    suite;
  Printf.printf
    "The static bound certifies steady-state no-thrash (the windowed\n\
     pressure law the fuzzer enforces); miss-parity with the full cache is\n\
     a stricter target, so a larger measured column means cross-region\n\
     transition misses, not an unsound bound.\n%!"

(* ------------------------------------------------------------------ *)
(* CSV export: the three figure datasets, one file per figure, for     *)
(* external plotting.                                                  *)

let csv_jobs () = fig4_jobs () @ fig5_jobs () @ fig6_jobs ()

let csv () =
  header "CSV export (bench_csv/fig{4,5,6}.csv)";
  let dir = "bench_csv" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write path header rows =
    let split = String.split_on_char ',' in
    match
      Report.write_csv ~path:(Filename.concat dir path) ~header:(split header)
        ~rows:(List.map split rows)
    with
    | Ok () -> Printf.printf "  wrote %s/%s\n%!" dir path
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
  in
  write "fig4.csv" "benchmark,waymemo_energy,wayplace_energy,waymemo_ed,wayplace_ed"
    (List.map
       (fun name ->
         Printf.sprintf "%s,%.4f,%.4f,%.4f,%.4f" name
           (norm_energy name (fig4_config Config.Way_memoization))
           (norm_energy name (fig4_config (wp 16)))
           (norm_ed name (fig4_config Config.Way_memoization))
           (norm_ed name (fig4_config (wp 16))))
       suite);
  write "fig5.csv" "area_kb,energy,ed"
    (List.map
       (fun a ->
         Printf.sprintf "%d,%.4f,%.4f" a
           (suite_mean (fun n -> norm_energy n (fig4_config (wp a))))
           (suite_mean (fun n -> norm_ed n (fig4_config (wp a)))))
       fig5_areas);
  write "fig6.csv"
    "size_kb,ways,waymemo_energy,wp16_energy,wp8_energy,waymemo_ed,wp16_ed,wp8_ed"
    (List.concat_map
       (fun size_kb ->
         List.map
           (fun ways ->
             let wm_e, a16_e, a8_e = fig6_row norm_energy size_kb ways in
             let wm_d, a16_d, a8_d = fig6_row norm_ed size_kb ways in
             Printf.sprintf "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f" size_kb ways
               wm_e a16_e a8_e wm_d a16_d a8_d)
           fig6_ways)
       fig6_sizes)

(* ------------------------------------------------------------------ *)
(* perf: simulator throughput per workload x scheme, with optional     *)
(* machine-readable JSON (BENCH_sim.json) so the trajectory is         *)
(* tracked PR-over-PR.  Runs are timed sequentially on one domain for  *)
(* stable numbers; --repeat N reports the median of N runs.            *)
(*                                                                     *)
(* Four timed paths per cell: "fast" (block-batched replay with        *)
(* steady-state fast-forward off — comparable with the committed       *)
(* baselines, which predate fast-forward), "fastforward" (the          *)
(* default production path), "probed" (Runner.run_timeline at the     *)
(* default window: the batched loop with a sampler attached), and      *)
(* optionally "reference".  The loop-dominated Mibench variants ride   *)
(* along so the fast-forward speedup is tracked where it matters.      *)

let perf_json = ref None
let perf_repeat = ref 3
let perf_benchmarks = ref None
let perf_reference = ref false

let perf_schemes =
  [
    Config.Baseline;
    wp 16;
    Config.Way_memoization;
    Config.Way_prediction;
    Config.Filter_cache { l0_bytes = 512 };
  ]

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: empty"
  | sorted ->
      let n = List.length sorted in
      let nth i = List.nth sorted i in
      if n mod 2 = 1 then nth (n / 2)
      else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

type perf_row = {
  pr_benchmark : string;
  pr_scheme : string;
  pr_path : string;  (** "fast", "fastforward", "probed" or "reference" *)
  pr_instrs : int;
  pr_wall_s : float;
  pr_wall_min_s : float;
      (** fastest of the repeats — a noise-robust floor estimate *)
  pr_pair_ratio_min : float;
      (** fast-forward and probed rows: minimum over the interleaved
          sample pairs of (this path's wall / fast wall).  On a shared
          1-core host, steal-time bursts dwarf a few-percent systematic
          difference even in per-path minima; pairing cancels the drift
          (both samples of a pair run back-to-back) and the minimum
          keeps one clean pair sufficient to prove the absence of
          overhead — a real slowdown shows in {e every} pair.  1.0 on
          other rows *)
  pr_ff_skipped_frac : float;
      (** dynamic instructions fast-forwarded / retired; 0 on the
          non-fast-forward paths *)
  pr_cache_hits : int;  (** snapshot-cache hits (fastforward path only) *)
  pr_cache_inserts : int;
}

let pr_ips r = float_of_int r.pr_instrs /. r.pr_wall_s

let time_run f =
  let t0 = Unix.gettimeofday () in
  let stats = f () in
  (Unix.gettimeofday () -. t0, stats)

let perf_rows () =
  let benchmarks =
    match !perf_benchmarks with
    | None -> suite @ Mibench.loop_names
    | Some names -> names
  in
  let repeat = max 1 !perf_repeat in
  List.concat_map
    (fun name ->
      let prepared = Runner.prepare (Mibench.find name) in
      List.concat_map
        (fun scheme ->
          let config = Config.xscale scheme in
          let one pr_path run =
            let samples = List.init repeat (fun _ -> time_run run) in
            let _, stats = List.hd samples in
            {
              pr_benchmark = name;
              pr_scheme = Config.scheme_name scheme;
              pr_path;
              pr_instrs = stats.Stats.retired_instrs;
              pr_wall_s = median (List.map fst samples);
              pr_wall_min_s =
                List.fold_left min infinity (List.map fst samples);
              pr_pair_ratio_min = 1.0;
              pr_ff_skipped_frac = 0.0;
              pr_cache_hits = 0;
              pr_cache_inserts = 0;
            }
          in
          (* One untimed run first.  The first run on a trace pays
             one-off costs (the data side's outcome log, the
             fast-forward plan), so a cold first pair has an inflated
             fast sample, and its low path/fast ratio is the one the
             paired-min estimator would pick. *)
          ignore (Runner.run_scheme ~fastforward:true prepared config);
          (* The fast, fast-forward and probed samples are interleaved
             (fast, ff, probed, fast, ff, probed, ...) so that host load
             drifting over the measurement window lands on every path
             symmetrically — back-to-back blocks of one path would hand
             whichever ran during the quieter seconds a fake advantage.
             Each ff sample gets a fresh report and snapshot cache, so
             the engagement columns describe one run (cross-region reuse
             within it), not an accumulation across repeats. *)
          let triples =
            List.init repeat (fun _ ->
                let fast_sample =
                  time_run (fun () ->
                      Runner.run_scheme ~fastforward:false prepared config)
                in
                let report = Wayplace.Sim.Steady_state.create_report () in
                let cache = Wayplace.Sim.Snapshot_cache.create () in
                let wall, stats =
                  time_run (fun () ->
                      Runner.run_scheme ~fastforward:true ~ff_report:report
                        ~snapshot_cache:cache prepared config)
                in
                let probed_sample =
                  time_run (fun () ->
                      fst (Runner.run_timeline prepared config))
                in
                (fast_sample, (wall, stats, report), probed_sample))
          in
          let fast_walls = List.map (fun ((w, _), _, _) -> w) triples in
          (* minimum over the interleaved samples of (path / fast) *)
          let paired_min walls =
            List.fold_left min infinity
              (List.map2
                 (fun fw w -> if fw > 0.0 then w /. fw else 1.0)
                 fast_walls walls)
          in
          let timed_row pr_path walls (stats : Stats.t) =
            {
              pr_benchmark = name;
              pr_scheme = Config.scheme_name scheme;
              pr_path;
              pr_instrs = stats.Stats.retired_instrs;
              pr_wall_s = median walls;
              pr_wall_min_s = List.fold_left min infinity walls;
              pr_pair_ratio_min = paired_min walls;
              pr_ff_skipped_frac = 0.0;
              pr_cache_hits = 0;
              pr_cache_inserts = 0;
            }
          in
          let fast =
            let (_, stats), _, _ = List.hd triples in
            timed_row "fast" fast_walls stats
          in
          let fastforward =
            let samples = List.map (fun (_, ff, _) -> ff) triples in
            let _, stats, report = List.hd samples in
            let retired = stats.Stats.retired_instrs in
            {
              (timed_row "fastforward"
                 (List.map (fun (w, _, _) -> w) samples)
                 stats)
              with
              pr_ff_skipped_frac =
                (if retired > 0 then
                   float_of_int
                     report.Wayplace.Sim.Steady_state.skipped_instrs
                   /. float_of_int retired
                 else 0.0);
              pr_cache_hits = report.Wayplace.Sim.Steady_state.cache_hits;
              pr_cache_inserts =
                report.Wayplace.Sim.Steady_state.cache_inserts;
            }
          in
          let probed =
            let samples = List.map (fun (_, _, p) -> p) triples in
            timed_row "probed" (List.map fst samples) (snd (List.hd samples))
          in
          let rows = [ fast; fastforward; probed ] in
          if not !perf_reference then rows
          else
            rows
            @ [
                one "reference" (fun () ->
                    Simulator.run_reference ~config
                      ~program:prepared.Runner.program
                      ~layout:(Runner.layout_for prepared config)
                      ~trace:prepared.Runner.trace_large);
              ])
        perf_schemes)
    benchmarks

let write_perf_json path rows =
  let esc = Wayplace.Sim.Report.json_escape in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"schema\": \"wayplace-bench-sim/1\",\n";
      Printf.fprintf oc "  \"generated_by\": \"bench/main.exe perf\",\n";
      Printf.fprintf oc
        "  \"host\": {\"hostname\": \"%s\", \"os\": \"%s\", \
         \"ocaml\": \"%s\", \"nproc\": %d, \"recommended_domains\": %d, \
         \"timing_domains\": 1},\n"
        (esc (Unix.gethostname ()))
        (esc Sys.os_type) (esc Sys.ocaml_version)
        (Domain.recommended_domain_count ())
        (Domain.recommended_domain_count ());
      Printf.fprintf oc "  \"repeat\": %d,\n" (max 1 !perf_repeat);
      Printf.fprintf oc "  \"results\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"benchmark\": \"%s\", \"scheme\": \"%s\", \"path\": \
             \"%s\", \"instrs\": %d, \"wall_s\": %.6f, \"instrs_per_sec\": \
             %.6g, \"ff_skipped_frac\": %.6f, \"cache_hits\": %d, \
             \"cache_inserts\": %d}%s\n"
            (esc r.pr_benchmark) (esc r.pr_scheme) (esc r.pr_path) r.pr_instrs
            r.pr_wall_s (pr_ips r) r.pr_ff_skipped_frac r.pr_cache_hits
            r.pr_cache_inserts
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "  wrote %s\n%!" path

(* Hard overhead gates.  The estimator is the paired ratio: samples are
   interleaved (fast, ff, probed) back-to-back, so each pair's path/fast
   ratio cancels host load drift, and the minimum ratio over a scheme's
   pairs makes one clean pair sufficient — a real systematic overhead is
   present in every pair, while scheduler steal-bursts on a shared
   1-core runner inflate only some.  Per benchmark the scheme ratios are
   averaged weighted by the fast path's minimum wall; a benchmark over
   the limit fails the run.

   - fast-forward: on patternless (non-loop) benchmarks the
     fast-forward machinery must be within 5% of the plain fast path;
   - probed: on crc, susan_c and crc_loop a sampled run (the batched
     loop with a sampler attached) must be within 1.5x of it. *)
let overhead_gate ~path ~limit ~applies rows =
  let gated = List.filter (fun r -> applies r.pr_benchmark) rows in
  let benchmarks =
    List.sort_uniq compare (List.map (fun r -> r.pr_benchmark) gated)
  in
  let overhead_of bench =
    (* weight each scheme's pair-min ratio by its fast minimum wall *)
    let wall = Hashtbl.create 8 in
    List.iter
      (fun r ->
        if r.pr_benchmark = bench && r.pr_path = "fast" then
          Hashtbl.replace wall r.pr_scheme r.pr_wall_min_s)
      gated;
    let num = ref 0.0 and den = ref 0.0 in
    List.iter
      (fun r ->
        if r.pr_benchmark = bench && r.pr_path = path then
          match Hashtbl.find_opt wall r.pr_scheme with
          | Some w when w > 0.0 ->
              num := !num +. (w *. r.pr_pair_ratio_min);
              den := !den +. w
          | Some _ | None -> ())
      gated;
    if !den > 0.0 then Some (!num /. !den) else None
  in
  let violations =
    List.filter_map
      (fun bench ->
        match overhead_of bench with
        | Some ratio ->
            Printf.printf "%s gate %s: %.3fx the fast path (limit %.2fx)\n"
              path bench ratio limit;
            if ratio > limit then Some (bench, ratio) else None
        | None -> None)
      benchmarks
  in
  List.iter
    (fun (bench, ratio) ->
      Printf.printf
        "::error::%s overhead gate: %s: %s %.2fx the plain fast path in \
         every interleaved pair (limit %.2fx)\n"
        path bench path ratio limit)
    violations;
  violations = []

let probed_gate_benchmarks = [ "crc"; "susan_c"; "crc_loop" ]

let perf () =
  header
    (Printf.sprintf
       "Simulator throughput (sequential, median of %d run%s)"
       (max 1 !perf_repeat)
       (if max 1 !perf_repeat = 1 then "" else "s"));
  let rows = perf_rows () in
  Printf.printf "%-12s %-22s %-10s %12s %10s %14s %9s %6s %6s\n" "benchmark"
    "scheme" "path" "instrs" "wall s" "instrs/sec" "ff-skip" "c-hit" "c-ins";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-22s %-10s %12d %10.4f %14.4g %9.3f %6d %6d\n"
        r.pr_benchmark r.pr_scheme r.pr_path r.pr_instrs r.pr_wall_s (pr_ips r)
        r.pr_ff_skipped_frac r.pr_cache_hits r.pr_cache_inserts)
    rows;
  let aggregate label select path =
    let sel = List.filter (fun r -> select r && r.pr_path = path) rows in
    let instrs = List.fold_left (fun acc r -> acc + r.pr_instrs) 0 sel
    and wall = List.fold_left (fun acc r -> acc +. r.pr_wall_s) 0.0 sel in
    if wall > 0.0 then begin
      Printf.printf "%-12s %-22s %-10s %12d %10.4f %14.4g\n" label "(all)"
        path instrs wall
        (float_of_int instrs /. wall);
      Some (float_of_int instrs /. wall)
    end
    else None
  in
  let is_loop r = List.mem r.pr_benchmark Mibench.loop_names in
  ignore (aggregate "suite" (fun r -> not (is_loop r)) "fast");
  ignore (aggregate "suite" (fun r -> not (is_loop r)) "fastforward");
  ignore (aggregate "suite" (fun r -> not (is_loop r)) "probed");
  let loops_off = aggregate "loops" is_loop "fast" in
  let loops_on = aggregate "loops" is_loop "fastforward" in
  ignore (aggregate "loops" is_loop "probed");
  (match (loops_off, loops_on) with
  | Some off, Some on when off > 0.0 ->
      Printf.printf
        "loop-dominated fast-forward speedup: %.1fx over the plain fast path\n"
        (on /. off)
  | _ -> ());
  (match !perf_json with None -> () | Some path -> write_perf_json path rows);
  let ff_ok =
    overhead_gate ~path:"fastforward" ~limit:1.05
      ~applies:(fun b -> not (List.mem b Mibench.loop_names))
      rows
  in
  let probed_ok =
    overhead_gate ~path:"probed" ~limit:1.5
      ~applies:(fun b -> List.mem b probed_gate_benchmarks)
      rows
  in
  let gate_ok = ff_ok && probed_ok in
  Printf.printf "%!";
  if not gate_ok then exit 1

(* Soft comparison of two perf JSON files (CI: warn, don't fail).
   [Report.parse_perf_rows] owns the line-oriented reading and never
   raises on malformed input: a stale, truncated or schema-drifted
   artifact degrades to warnings, not a red build. *)

let read_perf_file ~role path =
  match Wayplace.Sim.Report.parse_perf_rows path with
  | Error msg ->
      Printf.printf "::warning::perf-compare: cannot read %s file %s: %s\n"
        role path msg;
      []
  | Ok (rows, skipped) ->
      if skipped > 0 then
        Printf.printf
          "::warning::perf-compare: %d malformed result line%s skipped in %s\n"
          skipped
          (if skipped = 1 then "" else "s")
          path;
      if rows = [] then
        Printf.printf
          "::warning::perf-compare: no result rows recognised in %s (schema \
           change or empty file?)\n"
          path;
      rows

let perf_compare baseline_path new_path =
  let baseline = read_perf_file ~role:"baseline" baseline_path in
  let fresh = read_perf_file ~role:"new" new_path in
  let regressions = ref 0 and compared = ref 0 in
  List.iter
    (fun (key, new_ips) ->
      match List.assoc_opt key baseline with
      | None ->
          (* a path or cell the baseline predates: report, don't judge *)
          let b, s, p = key in
          Printf.printf "new %s x %s (%s): %.3g instrs/sec (no baseline row)\n"
            b s p new_ips
      | Some old_ips when old_ips <= 0.0 -> ()
      | Some old_ips ->
          incr compared;
          let ratio = new_ips /. old_ips in
          let b, s, p = key in
          if ratio < 0.70 then begin
            incr regressions;
            Printf.printf
              "::warning::perf regression %s x %s (%s): %.3g -> %.3g \
               instrs/sec (%.0f%%)\n"
              b s p old_ips new_ips (100.0 *. ratio)
          end
          else
            Printf.printf "ok %s x %s (%s): %.3g -> %.3g (%.0f%%)\n" b s p
              old_ips new_ips (100.0 *. ratio))
    fresh;
  Printf.printf
    "[perf-compare] %d rows compared, %d regression%s beyond 30%% (soft: \
     never fails the build)\n%!"
    !compared !regressions
    (if !regressions = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core data structures.              *)

let micro () =
  header "Micro-benchmarks (bechamel, ns per operation)";
  let open Bechamel in
  let module Cam = Wayplace.Cache.Cam_cache in
  let module Memo = Wayplace.Cache.Way_memo in
  let g = geometry ~size_kb:32 ~ways:32 in
  let cam = Cam.create g ~replacement:Wayplace.Cache.Replacement.Round_robin in
  for i = 0 to 255 do
    ignore (Cam.fill cam (i * 32) Cam.Victim_by_policy)
  done;
  let memo = Memo.create g ~replacement:Wayplace.Cache.Replacement.Round_robin in
  (* Same cache with a (discarding) probe attached: the difference to
     the plain lookup is the whole cost of observability when enabled;
     disabled it is one branch (and Stats stay bit-identical — tested). *)
  let cam_probed =
    Cam.create ~probe:Wayplace.Obs.Probe.null g
      ~replacement:Wayplace.Cache.Replacement.Round_robin
  in
  for i = 0 to 255 do
    ignore (Cam.fill cam_probed (i * 32) Cam.Victim_by_policy)
  done;
  let tlb = Wayplace.Tlb.Tlb.create ~entries:32 ~page_bytes:1024 in
  let counter = ref 0 in
  let tests =
    Test.make_grouped ~name:"wayplace"
      [
        Test.make ~name:"cam.lookup_full"
          (Staged.stage (fun () ->
               incr counter;
               ignore (Cam.lookup_full cam ((!counter land 255) * 32))));
        Test.make ~name:"cam.lookup_full+probe"
          (Staged.stage (fun () ->
               incr counter;
               ignore (Cam.lookup_full cam_probed ((!counter land 255) * 32))));
        Test.make ~name:"cam.lookup_way"
          (Staged.stage (fun () ->
               incr counter;
               let a = (!counter land 255) * 32 in
               ignore (Cam.lookup_way cam a ~way:(Geometry.way_of_addr g a))));
        Test.make ~name:"memo.fetch"
          (Staged.stage (fun () ->
               incr counter;
               ignore (Memo.fetch memo ((!counter land 1023) * 32))));
        Test.make ~name:"tlb.lookup"
          (Staged.stage (fun () ->
               incr counter;
               ignore
                 (Wayplace.Tlb.Tlb.lookup tlb
                    ((!counter land 63) * 1024)
                    ~wp_bit_of_page:(fun _ -> false))));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "  %-28s %8.1f ns/op\n" name ns
      | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
    results;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("tab1", no_jobs, tab1);
    ("fig1", no_jobs, fig1);
    ("fig4a", fig4_jobs, fig4a);
    ("fig4b", fig4_jobs, fig4b);
    ("fig5a", fig5_jobs, fig5a);
    ("fig5b", fig5_jobs, fig5b);
    ("fig6a", fig6_jobs, fig6a);
    ("fig6b", fig6_jobs, fig6b);
    ("ablate-sameline", ablate_sameline_jobs, ablate_sameline);
    ("ablate-replacement", ablate_replacement_jobs, ablate_replacement);
    ("ablate-invalidation", ablate_invalidation_jobs, ablate_invalidation);
    ("ablate-hint", ablate_hint_jobs, ablate_hint);
    ("ablate-profile", ablate_profile_jobs, ablate_profile);
    ("ext-comparators", ext_comparators_jobs, ext_comparators);
    ("ext-drowsy", ext_drowsy_jobs, ext_drowsy);
    ("mp-quantum", no_jobs, mp_quantum_sweep);
    ("advise", advise_jobs, advise_table);
    ("csv", csv_jobs, csv);
    ("micro", no_jobs, micro);
    ("perf", no_jobs, perf);
  ]

(* perf times fresh sequential runs, so it is opt-in rather than part
   of the default "run everything" set. *)
let default_experiments =
  List.filter (fun (id, _, _) -> id <> "perf") experiments

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [EXPERIMENT...]\n\
     \  -j, --jobs N     simulate on N worker domains (default %d; 1 = sequential)\n\
     \  list             print the experiment ids and exit\n\
     perf options (experiment 'perf' is opt-in, excluded from the default set):\n\
     \  --json PATH      write machine-readable results (BENCH_sim.json)\n\
     \  --repeat N       median of N timed runs per cell (default 3)\n\
     \  --bench A,B,..   restrict perf to these workloads (default: full suite)\n\
     \  --ref            also time the per-instruction reference path\n\
     perf-compare OLD NEW  soft-compare two perf JSON files (warn >30%% slower)\n"
    (Sweep.default_workers ())

let () =
  let rec parse ids = function
    | [] -> List.rev ids
    | ("-j" | "--jobs") :: v :: rest -> begin
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            requested_workers := Some n;
            parse ids rest
        | Some _ | None ->
            Printf.eprintf "bad worker count %S\n" v;
            usage ();
            exit 1
      end
    | [ ("-j" | "--jobs") ] ->
        Printf.eprintf "-j needs a worker count\n";
        usage ();
        exit 1
    | "--json" :: path :: rest ->
        perf_json := Some path;
        parse ids rest
    | "--repeat" :: v :: rest -> begin
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            perf_repeat := n;
            parse ids rest
        | Some _ | None ->
            Printf.eprintf "bad repeat count %S\n" v;
            usage ();
            exit 1
      end
    | "--bench" :: v :: rest -> begin
        match Mibench.select v with
        | Ok names ->
            perf_benchmarks := Some names;
            parse ids rest
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
      end
    | "--ref" :: rest ->
        perf_reference := true;
        parse ids rest
    | [ ("--json" | "--repeat" | "--bench") as flag ] ->
        Printf.eprintf "%s needs an argument\n" flag;
        usage ();
        exit 1
    | "perf-compare" :: old_path :: new_path :: _ ->
        perf_compare old_path new_path;
        exit 0
    | "perf-compare" :: _ ->
        Printf.eprintf "perf-compare needs OLD and NEW json paths\n";
        usage ();
        exit 1
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | "list" :: _ ->
        List.iter (fun (id, _, _) -> print_endline id) experiments;
        exit 0
    | id :: rest -> parse (id :: ids) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map (fun (id, _, _) -> id) default_experiments
    | ids -> ids
  in
  let lookup id =
    match List.find_opt (fun (id', _, _) -> id = id') experiments with
    | Some entry -> entry
    | None ->
        Printf.eprintf "unknown experiment %S (try: list)\n" id;
        exit 1
  in
  let selected = List.map lookup requested in
  let t0 = Unix.gettimeofday () in
  (* Warm the cache in parallel: one deduped batch for all requested
     experiments, so baselines shared across figures run once. *)
  let jobs = List.concat_map (fun (_, jobs_of, _) -> jobs_of ()) selected in
  let unique = List.length (Sweep.dedup jobs) in
  if unique > 0 then begin
    let engine = Lazy.force sweep in
    Printf.eprintf "[sweep] %d unique jobs on %d worker%s\n%!" unique
      (Sweep.workers engine)
      (if Sweep.workers engine = 1 then "" else "s");
    ignore (Sweep.run_batch engine jobs)
  end;
  List.iter (fun (_, _, f) -> f ()) selected;
  Printf.printf "\n[bench] done in %.1fs\n%!" (Unix.gettimeofday () -. t0)
