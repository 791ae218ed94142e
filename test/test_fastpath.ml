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

(* --- the data side's outcome log ----------------------------------- *)

(* Plain runs and observed runs charge the data side from a memoised
   per-trace outcome log.  A copy of the block array is a new memo key,
   so the first run on it computes the log cold; later runs find it
   warm.  Logs are compared physically: one memo entry per D-state
   key. *)
module Block_exec = Wayplace.Sim.Block_exec

let fresh_trace spec =
  let tr = (prepare spec).Runner.trace_large in
  { tr with Wayplace.Workloads.Tracer.blocks = Array.copy tr.blocks }

(* The log a run of [config] on [trace] replays: the memo's entry. *)
let log_of_run spec trace config =
  let t =
    Block_exec.trace config ~stats:(Stats.create ()) trace
      (Runner.compiled_for (prepare spec) config)
  in
  Block_exec.replay_data config t;
  Option.get t.Block_exec.outcomes

let check_replay ~name spec trace config =
  let compiled = Runner.compiled_for (prepare spec) config in
  let fast =
    Simulator.run_compiled ~fastforward:false ~config ~trace compiled
  in
  let reference =
    Simulator.run_compiled ~reference_only:true ~config ~trace compiled
  in
  if not (Stats.equal fast reference) then
    Alcotest.failf "%s: replayed data side diverges from reference:@ %a" name
      Stats.pp_diff (fast, reference);
  (fast, log_of_run spec trace config)

(* Every scheme shares the XScale data side: the first run on a fresh
   trace computes the one log every later run, of any scheme,
   replays. *)
let test_log_cold_warm spec () =
  let trace = fresh_trace spec in
  let first = ref None in
  List.iter
    (fun scheme ->
      let config = Config.xscale scheme in
      let name =
        Printf.sprintf "%s / %s" spec.Spec.name (Config.scheme_name scheme)
      in
      let _, log = check_replay ~name spec trace config in
      let _, warm = check_replay ~name:(name ^ " warm") spec trace config in
      let shared = match !first with None -> log | Some l -> l in
      first := Some shared;
      Alcotest.(check bool) (name ^ ": one shared log") true
        (log == shared && warm == shared))
    schemes

(* A small data side, so misses, evictions and D-TLB walks are
   frequent and each D-state field below changes the outcomes. *)
let small_dside =
  {
    (Config.xscale Config.Baseline) with
    Config.dcache = Geometry.make ~size_bytes:1024 ~assoc:4 ~line_bytes:32;
    dtlb_entries = 8;
  }

let dstate_variants =
  [
    ( "dcache geometry",
      {
        small_dside with
        Config.dcache = Geometry.make ~size_bytes:2048 ~assoc:2 ~line_bytes:16;
      } );
    ("LRU", Config.with_replacement small_dside Replacement.Lru);
    ("dtlb entries", { small_dside with Config.dtlb_entries = 4 });
    ("page bytes", { small_dside with Config.page_bytes = 4096 });
  ]

let test_log_dstate_keys () =
  let spec = Mibench.tiny in
  let trace = fresh_trace spec in
  let base, base_log = check_replay ~name:"base" spec trace small_dside in
  let logs =
    List.map
      (fun (name, config) ->
        let stats, log = check_replay ~name spec trace config in
        Alcotest.(check bool)
          (name ^ ": changes the data side")
          false (Stats.equal base stats);
        (name, config, log))
      dstate_variants
  in
  let all = ("base", small_dside, base_log) :: logs in
  List.iteri
    (fun i (name, config, log) ->
      List.iteri
        (fun j (other, _, log') ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s: own logs" name other)
              true (log != log'))
        all;
      Alcotest.(check bool) (name ^ ": stays memoised") true
        (log_of_run spec trace config == log))
    all

let test_log_charge_only_fields () =
  let spec = Mibench.tiny in
  let trace = fresh_trace spec in
  let _, base_log = check_replay ~name:"base" spec trace small_dside in
  let energy = small_dside.Config.energy in
  List.iter
    (fun (name, config) ->
      let _, log = check_replay ~name spec trace config in
      Alcotest.(check bool) (name ^ ": reuses the log") true (log == base_log))
    [
      ( "latencies",
        { small_dside with Config.memory_latency = 7; tlb_walk_latency = 3 } );
      ( "energy",
        Config.with_energy small_dside
          {
            energy with
            Wayplace.Energy.Params.memory_access_pj =
              energy.Wayplace.Energy.Params.memory_access_pj *. 1.5;
          } );
      ( "I-side and scheme",
        Config.with_icache
          (Config.with_scheme small_dside Config.Way_memoization)
          small_geometry );
    ]

(* Windows from a warm log: a plain run warms it first. *)
let test_log_sampled_warm () =
  let prep = prepare straddle in
  List.iter
    (fun scheme ->
      let config = Config.xscale scheme in
      ignore (Runner.run_scheme ~fastforward:false prep config);
      let log = log_of_run straddle prep.Runner.trace_large config in
      List.iter
        (fun window_cycles -> check_observed ~window_cycles straddle config)
        [ 1; 7; 1024 ];
      Alcotest.(check bool) "sampled runs replay the warm log" true
        (log_of_run straddle prep.Runner.trace_large config == log))
    schemes

(* Fast-forward on a replayed data side: a boundary's fingerprint
   holds the outcomes of the iteration starting there, and a skip only
   covers iterations whose logged outcomes repeat them. *)
module Steady_state = Wayplace.Sim.Steady_state

let replaying_ctx spec config =
  let prep = prepare spec in
  let m = Block_exec.machine ~code_base:Simulator.code_base config in
  let t =
    Block_exec.trace config ~stats:(Stats.create ()) prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  Block_exec.replay_data config t;
  ( t,
    Block_exec.ff_ctx m t ~config ~policy:Steady_state.default_policy
      ~report:(Steady_state.create_report ()) ~cache:None ~cycle_headroom:None
  )

let log_of (t : Block_exec.trace) = Option.get t.Block_exec.outcomes

let period_mem (t : Block_exec.trace) ~start ~period =
  let n = ref 0 in
  for j = start to start + period - 1 do
    n :=
      !n + Array.length t.Block_exec.info.(t.Block_exec.blocks.(j)).mem
  done;
  !n

(* Two machines with the same I-side and different data sides, stepped
   in lockstep: their fingerprints must be equal exactly where the
   logged outcomes of the next iteration are. *)
let test_ff_fingerprints_outcomes () =
  let (ta, ca), (tb, cb) =
    ( replaying_ctx Mibench.tiny (Config.xscale Config.Baseline),
      replaying_ctx Mibench.tiny small_dside )
  in
  let fingerprint ctx k =
    let words = ref [] in
    ctx.Steady_state.fingerprint ~start:k ~period:3 ~add:(fun w ->
        words := w :: !words);
    !words
  in
  let differ = ref 0 and same = ref 0 in
  for k = 0 to 1500 do
    let pm = period_mem ta ~start:k ~period:3 in
    if pm > 0 then begin
      let seg t = Bytes.sub (log_of t) t.Block_exec.next_op pm in
      let outcomes_equal = Bytes.equal (seg ta) (seg tb) in
      if outcomes_equal then incr same else incr differ;
      Alcotest.(check bool)
        (Printf.sprintf "block %d: fingerprints equal iff outcomes are" k)
        outcomes_equal
        (fingerprint ca k = fingerprint cb k)
    end;
    ca.Steady_state.exec k;
    cb.Steady_state.exec k
  done;
  Alcotest.(check bool) "both cases seen" true (!differ > 0 && !same > 0)

let test_ff_skip_repeats_only () =
  let cut = ref 0 in
  List.iter
    (fun (k, period, iters) ->
      let t, ctx = replaying_ctx Mibench.tiny small_dside in
      for j = 0 to k - 1 do
        ctx.Steady_state.exec j
      done;
      let log = log_of t and c = t.Block_exec.next_op in
      let pm = period_mem t ~start:k ~period in
      let expect =
        if pm = 0 then iters
        else begin
          let n = ref 1 in
          while
            !n < iters
            && Bytes.equal
                 (Bytes.sub log (c + (!n * pm)) pm)
                 (Bytes.sub log c pm)
          do
            incr n
          done;
          !n
        end
      in
      if expect < iters then incr cut;
      let name =
        Printf.sprintf "block %d, period %d, %d iters" k period iters
      in
      Alcotest.(check int) (name ^ ": allowed") expect
        (ctx.Steady_state.skip_data ~start:k ~period ~iters);
      Alcotest.(check int)
        (name ^ ": log position")
        (c + (expect * pm))
        t.Block_exec.next_op)
    (List.concat_map
       (fun k -> List.map (fun (p, n) -> (k, p, n)) [ (1, 4); (2, 3); (5, 2) ])
       [ 0; 17; 120; 400; 901 ]);
  Alcotest.(check bool) "some skips cut short" true (!cut > 0)

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
      ( "outcome log",
        List.map
          (fun spec ->
            Alcotest.test_case (spec.Spec.name ^ ": cold and warm") `Quick
              (test_log_cold_warm spec))
          kernels
        @ [
            Alcotest.test_case "one log per D-state key" `Quick
              test_log_dstate_keys;
            Alcotest.test_case "latency and energy reuse the log" `Quick
              test_log_charge_only_fields;
            Alcotest.test_case "sampled windows on a warm log" `Quick
              test_log_sampled_warm;
            Alcotest.test_case "fast-forward fingerprints outcomes" `Quick
              test_ff_fingerprints_outcomes;
            Alcotest.test_case "fast-forward skips repeats only" `Quick
              test_ff_skip_repeats_only;
          ] );
      ( "plan memo",
        [
          Alcotest.test_case "concurrent first request dedups" `Quick
            test_plan_concurrent_dedup;
          Alcotest.test_case "invalid line size rejected" `Quick
            test_plan_invalid_line_bytes;
        ] );
    ]
