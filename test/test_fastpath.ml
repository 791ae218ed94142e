(* Fast-path equivalence: the block-batched replay (Compiled_trace +
   Fetch_engine.fetch_run) must produce Stats bit-identical to the
   per-instruction reference loop, on every scheme and on kernels
   crafted to stress the batching boundaries — long same-line streaks,
   blocks that straddle cache lines, and drowsy wake accounting. *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Simulator = Wayplace.Sim.Simulator
module Runner = Wayplace.Sim.Runner
module Geometry = Wayplace.Cache.Geometry
module Replacement = Wayplace.Cache.Replacement
module Mibench = Wayplace.Workloads.Mibench
module Spec = Wayplace.Workloads.Spec

(* --- hand-crafted kernels ---------------------------------------- *)

let kernel ~name ~seed ~instrs:(imin, imax) ?(funcs = 4) ?(blocks = (2, 5))
    ?(loop_depth = 2) ?(trips = 9) () =
  {
    Spec.name;
    seed;
    num_funcs = funcs;
    blocks_per_func_min = fst blocks;
    blocks_per_func_max = snd blocks;
    instrs_per_block_min = imin;
    instrs_per_block_max = imax;
    max_loop_depth = loop_depth;
    avg_loop_trips = trips;
    hot_func_fraction = 0.5;
    hot_call_bias = 0.8;
    if_taken_bias = 0.45;
    mem_ratio = 0.25;
    mac_ratio = 0.05;
    data_working_set_bytes = 8 * 1024;
    trace_blocks_large = 3_000;
    trace_blocks_small = 3_000;
  }

(* Long straight-line blocks: a 32 B line holds 8 instructions, so
   16-24-instruction blocks are dominated by same-line runs — the case
   the batched path collapses into single fetch_run calls. *)
let streaks = kernel ~name:"streaks" ~seed:11 ~instrs:(16, 24) ()

(* Short odd-length blocks keep block starts drifting across line
   boundaries, so most runs straddle a line edge mid-block. *)
let straddle =
  kernel ~name:"straddle" ~seed:12 ~instrs:(1, 3) ~funcs:6 ~blocks:(3, 7) ()

(* Single-instruction blocks: every batched run has length 1 — the
   degenerate case where batching must still agree on every counter. *)
let singletons = kernel ~name:"singletons" ~seed:13 ~instrs:(1, 1) ()

let prep_of = Hashtbl.create 8

let prepare spec =
  match Hashtbl.find_opt prep_of spec.Spec.name with
  | Some p -> p
  | None ->
      let p = Runner.prepare spec in
      Hashtbl.add prep_of spec.Spec.name p;
      p

(* --- the invariant ----------------------------------------------- *)

let check_equiv spec config =
  let prep = prepare spec in
  (* Fast path: Runner.run_scheme dispatches to the block-batched
     replay (no probe, no schedule). *)
  let fast = Runner.run_scheme prep config in
  let reference =
    Simulator.run_compiled ~reference_only:true ~config
      ~trace:prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  if not (Stats.equal fast reference) then
    Alcotest.failf "%s / %s: fast path diverges from reference:@ %a"
      spec.Spec.name
      (Config.scheme_name config.Config.scheme)
      Stats.pp_diff (fast, reference)

let schemes =
  [
    Config.Baseline;
    Config.Way_placement { area_bytes = 2048 };
    Config.Way_placement { area_bytes = 16 * 1024 };
    Config.Way_memoization;
    Config.Way_prediction;
    Config.Filter_cache { l0_bytes = 512 };
  ]

let kernels = [ streaks; straddle; singletons; Mibench.tiny ]

(* --- tests ------------------------------------------------------- *)

let test_all_schemes spec () =
  List.iter (fun s -> check_equiv spec (Config.xscale s)) schemes

(* A small, low-associativity geometry makes conflict misses (and thus
   mid-run evictions and refills) frequent.  The filter cache's L0 must
   stay strictly smaller than this L1. *)
let small_geometry = Geometry.make ~size_bytes:512 ~assoc:4 ~line_bytes:16

let small_schemes =
  List.map
    (function
      | Config.Filter_cache _ -> Config.Filter_cache { l0_bytes = 128 }
      | s -> s)
    schemes

let test_small_geometry () =
  List.iter
    (fun s ->
      check_equiv straddle (Config.with_icache (Config.xscale s) small_geometry))
    small_schemes

let test_lru () =
  List.iter
    (fun s ->
      check_equiv straddle
        (Config.with_replacement
           (Config.with_icache (Config.xscale s) small_geometry)
           Replacement.Lru))
    small_schemes

let test_elision_off () =
  (* With elision disabled every instruction of a same-line run pays a
     full CAM search — the branch of fetch_run that batches whole-width
     lookups. *)
  List.iter
    (fun s ->
      check_equiv streaks
        (Config.with_same_line_elision (Config.xscale s) false))
    schemes

let drowsy_configs =
  (* Drowsy is only supported for baseline and way-placement; exercise
     a window small enough that lines fall asleep inside the trace. *)
  List.concat_map
    (fun s ->
      let leak = Config.with_leakage (Config.xscale s) true in
      [ leak; Config.with_drowsy leak (Some 64) ])
    [ Config.Baseline; Config.Way_placement { area_bytes = 2048 } ]

let test_drowsy spec () = List.iter (check_equiv spec) drowsy_configs

(* --- observed runs: a sampler or a resize schedule ---------------- *)

(* Both keep the batched loop: resizes apply between blocks, and only
   the runs that could reach a window boundary are stepped through the
   reference body.  The stats must still be the reference loop's, and
   the sampler's windows those of a sampler fed one event per access
   on the reference loop. *)
module Sampler = Wayplace.Obs.Sampler

let check_observed ?(schedule = []) ?window_cycles spec config =
  let prep = prepare spec in
  let trace = prep.Runner.trace_large in
  let compiled = Runner.compiled_for prep config in
  let name =
    Printf.sprintf "%s / %s%s%s" spec.Spec.name
      (Config.scheme_name config.Config.scheme)
      (match window_cycles with
      | Some w -> Printf.sprintf ", window %d" w
      | None -> "")
      (if schedule = [] then "" else ", resized")
  in
  let new_sampler () =
    Option.map (fun window_cycles -> Sampler.create ~window_cycles ())
      window_cycles
  in
  let reference_sampler = new_sampler () in
  let reference =
    Simulator.run_compiled
      ?probe:(Option.map Sampler.probe reference_sampler)
      ~reference_only:true ~schedule ~config ~trace compiled
  in
  let sampler = new_sampler () in
  let fast =
    Simulator.run_compiled ?sampler ~schedule ~config ~trace compiled
  in
  if not (Stats.equal fast reference) then
    Alcotest.failf "%s: observed fast path diverges from reference:@ %a" name
      Stats.pp_diff (fast, reference);
  let bits =
    List.map (fun (w : Sampler.window) ->
        ( { w with Sampler.energy_pj = [||]; cum_energy_pj = [||] },
          Array.map Int64.bits_of_float w.Sampler.energy_pj,
          Array.map Int64.bits_of_float w.Sampler.cum_energy_pj ))
  in
  match (sampler, reference_sampler) with
  | Some s, Some r ->
      Alcotest.(check bool) (name ^ ": windows identical") true
        (bits (Sampler.finish s) = bits (Sampler.finish r))
  | _ -> ()

let test_sampled spec () =
  List.iter
    (fun scheme ->
      List.iter
        (fun window_cycles ->
          check_observed ~window_cycles spec (Config.xscale scheme))
        [ 1; 7; 1024 ])
    schemes

(* Resizes at the very first and the very last block, plus one in the
   middle: with no sampler the schedule alone takes the batched loop. *)
let test_resized spec () =
  let n =
    Array.length (prepare spec).Runner.trace_large.Wayplace.Workloads.Tracer.blocks
  in
  let schedule = [ (0, 1024); (n / 2, 4096); (n - 1, 2048) ] in
  List.iter
    (fun area_bytes ->
      let config = Config.xscale (Config.Way_placement { area_bytes }) in
      check_observed ~schedule spec config;
      check_observed ~schedule ~window_cycles:64 spec config)
    [ 2048; 16 * 1024 ]

let test_sampled_drowsy spec () =
  List.iter
    (fun config -> check_observed ~window_cycles:97 spec config)
    drowsy_configs

(* --- plan memo: concurrent first-request dedup -------------------- *)

module Compiled_trace = Wayplace.Sim.Compiled_trace

let test_plan_concurrent_dedup () =
  (* A fresh compiled trace so this test owns every first [plan]
     request.  For each line size, domains race the first request; the
     memo may let several compute, but every caller must get the one
     plan the first insert won with — physical equality, so later
     sharing (and the sweep's cross-domain reuse) is real. *)
  let prep = prepare streaks in
  let compiled =
    Compiled_trace.make ~program:prep.Runner.program
      ~layout:prep.Runner.original_layout
  in
  let n = 8 in
  List.iter
    (fun line_bytes ->
      let ready = Atomic.make 0 in
      let worker () =
        Atomic.incr ready;
        while Atomic.get ready < n do
          Domain.cpu_relax ()
        done;
        Compiled_trace.plan compiled ~line_bytes
      in
      let plans =
        List.map Domain.join (List.init n (fun _ -> Domain.spawn worker))
      in
      let first = List.hd plans in
      List.iteri
        (fun i p ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d: domain %d shares the plan" line_bytes i)
            true (p == first))
        plans;
      Alcotest.(check bool)
        (Printf.sprintf "line %d: later request hits the memo" line_bytes)
        true
        (Compiled_trace.plan compiled ~line_bytes == first))
    [ 16; 32; 64; 128 ]

let test_plan_invalid_line_bytes () =
  let prep = prepare streaks in
  let compiled = prep.Runner.compiled_original in
  List.iter
    (fun lb ->
      Alcotest.check_raises
        (Printf.sprintf "line_bytes %d rejected" lb)
        (Invalid_argument
           "Compiled_trace.plan: line_bytes must be a positive power of two")
        (fun () -> ignore (Compiled_trace.plan compiled ~line_bytes:lb)))
    [ 0; -32; 48 ]

let () =
  Alcotest.run "fastpath"
    [
      ( "scheme grid",
        List.map
          (fun spec ->
            Alcotest.test_case spec.Spec.name `Quick (test_all_schemes spec))
          kernels );
      ( "geometry",
        [
          Alcotest.test_case "512B 4-way 16B lines" `Quick test_small_geometry;
          Alcotest.test_case "LRU replacement" `Quick test_lru;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "same-line elision off" `Quick test_elision_off;
        ] );
      ( "drowsy",
        [
          Alcotest.test_case "streaks: leakage, drowsy on/off" `Quick
            (test_drowsy streaks);
          Alcotest.test_case "straddle: leakage, drowsy on/off" `Quick
            (test_drowsy straddle);
        ] );
      ( "observed",
        List.map
          (fun spec ->
            Alcotest.test_case (spec.Spec.name ^ ": sampled") `Quick
              (test_sampled spec))
          kernels
        @ [
            Alcotest.test_case "streaks: resized" `Quick (test_resized streaks);
            Alcotest.test_case "straddle: resized" `Quick
              (test_resized straddle);
            Alcotest.test_case "streaks: sampled drowsy" `Quick
              (test_sampled_drowsy streaks);
          ] );
      ( "plan memo",
        [
          Alcotest.test_case "concurrent first request dedups" `Quick
            test_plan_concurrent_dedup;
          Alcotest.test_case "invalid line size rejected" `Quick
            test_plan_invalid_line_bytes;
        ] );
    ]
