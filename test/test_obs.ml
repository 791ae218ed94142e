(* Tests for the observability subsystem: the windowed sampler's
   conservation law (window sums reproduce the final Stats.t), window
   boundary behaviour, marker placement, and the structural validity of
   the CSV and Chrome trace-event exports. *)

module Probe = Wayplace.Obs.Probe
module Sampler = Wayplace.Obs.Sampler
module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner
module Timeline = Wayplace.Sim.Timeline
module Report = Wayplace.Sim.Report
module Account = Wayplace.Energy.Account
module Mibench = Wayplace.Workloads.Mibench

let wp16 = Config.Way_placement { area_bytes = 16 * 1024 }

let tiny_prep = lazy (Runner.prepare Mibench.tiny)

let timeline ?schedule ?(window_cycles = 2048) config =
  Runner.run_timeline ?schedule ~window_cycles (Lazy.force tiny_prep) config

(* --- sampler basics --- *)

let test_create_validation () =
  Alcotest.(check bool) "window_cycles 0 rejected" true
    (match Sampler.create ~window_cycles:0 () with
    | (_ : Sampler.t) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative rejected" true
    (match Sampler.create ~window_cycles:(-5) () with
    | (_ : Sampler.t) -> false
    | exception Invalid_argument _ -> true)

let test_finish_idempotent () =
  let s = Sampler.create () in
  let p = Sampler.probe s in
  p (Probe.Retire { cycles = 7; instrs = 3 });
  let a = Sampler.finish s in
  (* Late events are discarded, and finishing again returns the same
     windows. *)
  p (Probe.Retire { cycles = 100_000; instrs = 4 });
  let b = Sampler.finish s in
  Alcotest.(check int) "one window" 1 (List.length a);
  Alcotest.(check bool) "idempotent" true (a = b)

(* Aggregate events count exactly what their unrolled form counts, and
   an energy run is replayed addition by addition (0.1 is not exact in
   binary, so [n *. pj] would differ from [n] additions). *)
let test_aggregate_events () =
  let run events =
    let s = Sampler.create ~window_cycles:10 () in
    let p = Sampler.probe s in
    List.iter p events;
    p (Probe.Retire { cycles = 3; instrs = 3 });
    p (Probe.Retire { cycles = 12; instrs = 4 });
    Sampler.finish s
  in
  let unrolled =
    run
      (List.init 7 (fun _ -> Probe.Fetch Probe.Same_line)
      @ List.init 7 (fun _ -> Probe.Energy { bucket = Probe.Icache; pj = 0.1 }))
  in
  let aggregate =
    run
      [
        Probe.Fetches { kind = Probe.Same_line; n = 7 };
        Probe.Energy_run { bucket = Probe.Icache; pj = 0.1; n = 7 };
      ]
  in
  let bits (w : Sampler.window) =
    ( { w with Sampler.energy_pj = [||]; cum_energy_pj = [||] },
      Array.map Int64.bits_of_float w.Sampler.energy_pj,
      Array.map Int64.bits_of_float w.Sampler.cum_energy_pj )
  in
  Alcotest.(check bool) "same windows, energy bit for bit" true
    (List.map bits unrolled = List.map bits aggregate);
  Alcotest.(check bool) "not the product" false
    ((List.hd aggregate).Sampler.energy_pj.(Probe.bucket_index Probe.Icache)
    = 7.0 *. 0.1)

(* A probed engine reports a same-line run's elided tail as one
   [Fetches] and one [Energy_run]. *)
let test_fetch_run_aggregates () =
  let events = ref [] in
  let probe ev = events := ev :: !events in
  let config = Config.xscale Config.Baseline in
  let engine =
    Wayplace.Sim.Fetch_engine.create ~probe config
      ~code_base:Wayplace.Sim.Simulator.code_base
  in
  let stats = Stats.create () in
  Wayplace.Energy.Account.set_probe stats.Stats.account (Some probe);
  ignore
    (Wayplace.Sim.Fetch_engine.fetch_run engine stats
       Wayplace.Sim.Simulator.code_base ~n:8);
  let tail_fetches =
    List.filter_map
      (function
        | Probe.Fetches { kind = Probe.Same_line; n } -> Some n | _ -> None)
      !events
  in
  let tail_energy =
    List.filter_map
      (function Probe.Energy_run { n; _ } -> Some n | _ -> None)
      !events
  in
  Alcotest.(check (list int)) "one Fetches for the tail" [ 7 ] tail_fetches;
  Alcotest.(check (list int)) "one Energy_run for the tail" [ 7 ] tail_energy;
  Alcotest.(check int) "stats count every fetch" 8 stats.Stats.fetches

let test_window_boundaries () =
  let stats, windows = timeline (Config.xscale Config.Baseline) in
  Alcotest.(check bool) "several windows" true (List.length windows > 3);
  let rec check_chain prev_end index = function
    | [] -> ()
    | (w : Sampler.window) :: rest ->
        Alcotest.(check int) "indices are dense" index w.Sampler.index;
        Alcotest.(check int) "contiguous with predecessor" prev_end
          w.Sampler.start_cycle;
        Alcotest.(check bool) "window advances" true
          (w.Sampler.end_cycle >= w.Sampler.start_cycle);
        check_chain w.Sampler.end_cycle (index + 1) rest
  in
  check_chain 0 0 windows;
  let last = List.nth windows (List.length windows - 1) in
  Alcotest.(check int) "spans telescope to the run's cycles"
    stats.Stats.cycles last.Sampler.end_cycle

(* --- the conservation law --- *)

(* The Stats.t field each sampler counter mirrors ([None] for cache
   internals the stats never count). *)
let counter_expected (s : Stats.t) = function
  | Sampler.Counter.Same_line_fetches -> Some s.Stats.same_line_fetches
  | Sampler.Counter.Wp_fetches -> Some s.Stats.wp_fetches
  | Sampler.Counter.Full_fetches -> Some s.Stats.full_fetches
  | Sampler.Counter.Link_follows -> Some s.Stats.link_follows
  | Sampler.Counter.Icache_hits -> Some s.Stats.icache_hits
  | Sampler.Counter.Icache_misses -> Some s.Stats.icache_misses
  | Sampler.Counter.L0_hits -> Some s.Stats.l0_hits
  | Sampler.Counter.L0_misses -> Some s.Stats.l0_misses
  | Sampler.Counter.Tag_comparisons -> Some s.Stats.tag_comparisons
  | Sampler.Counter.Hint_correct_wp -> Some s.Stats.hint_correct_wp
  | Sampler.Counter.Hint_correct_normal -> Some s.Stats.hint_correct_normal
  | Sampler.Counter.Hint_missed_saving -> Some s.Stats.hint_missed_saving
  | Sampler.Counter.Hint_reaccess -> Some s.Stats.hint_reaccess
  | Sampler.Counter.Waypred_correct -> Some s.Stats.waypred_correct
  | Sampler.Counter.Waypred_wrong -> Some s.Stats.waypred_wrong
  | Sampler.Counter.Drowsy_wakes -> Some s.Stats.drowsy_wakes
  | Sampler.Counter.Link_writes -> Some s.Stats.link_writes
  | Sampler.Counter.Links_invalidated -> Some s.Stats.links_invalidated
  | Sampler.Counter.Itlb_misses -> Some s.Stats.itlb_misses
  | Sampler.Counter.Dtlb_misses -> Some s.Stats.dtlb_misses
  | Sampler.Counter.Dcache_accesses -> Some s.Stats.dcache_accesses
  | Sampler.Counter.Dcache_misses -> Some s.Stats.dcache_misses
  | Sampler.Counter.Line_fills | Sampler.Counter.Evictions -> None

let bucket_account acct = function
  | Probe.Icache -> Account.icache_pj acct
  | Probe.Itlb -> Account.itlb_pj acct
  | Probe.Dcache -> Account.dcache_pj acct
  | Probe.Memory -> Account.memory_pj acct
  | Probe.Core -> Account.core_pj acct

let check_conservation name (stats : Stats.t) windows =
  let sums = Sampler.sum_counters windows in
  List.iter
    (fun c ->
      match counter_expected stats c with
      | None -> ()
      | Some expected ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s window sum" name (Sampler.Counter.name c))
            expected
            sums.(Sampler.Counter.index c))
    Sampler.Counter.all;
  let retired =
    List.fold_left
      (fun acc (w : Sampler.window) -> acc + w.Sampler.retired)
      0 windows
  in
  Alcotest.(check int)
    (name ^ ": retired window sum")
    stats.Stats.retired_instrs retired;
  (* Cumulative per-bucket energy mirrors the account's additions in
     order, so the final value is bit-identical... *)
  let cum = Sampler.final_cum_energy windows in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: cumulative %s bit-identical" name
           (Probe.bucket_name b))
        true
        (Float.equal
           (bucket_account stats.Stats.account b)
           cum.(Probe.bucket_index b)))
    Probe.buckets;
  (* ...while re-summing the window-local deltas reassociates the
     additions, so that reproduction is only tolerance-exact. *)
  let deltas = Sampler.sum_energy windows in
  List.iter
    (fun b ->
      let expected = bucket_account stats.Stats.account b in
      let actual = deltas.(Probe.bucket_index b) in
      let tol = 1e-9 *. Float.max 1.0 (Float.abs expected) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: window-delta %s sum" name (Probe.bucket_name b))
        true
        (Float.abs (actual -. expected) <= tol))
    Probe.buckets

let test_conservation_baseline () =
  let stats, windows = timeline (Config.xscale Config.Baseline) in
  check_conservation "baseline" stats windows

let test_conservation_wayplace () =
  let stats, windows = timeline (Config.xscale wp16) in
  check_conservation "wayplace" stats windows

let test_conservation_drowsy () =
  let config =
    Config.with_drowsy
      (Config.with_leakage (Config.xscale Config.Baseline) true)
      (Some 2000)
  in
  let stats, windows = timeline config in
  Alcotest.(check bool) "drowsy wakes observed" true
    (stats.Stats.drowsy_wakes > 0);
  check_conservation "drowsy" stats windows

let test_probe_leaves_stats_identical () =
  let prep = Lazy.force tiny_prep in
  List.iter
    (fun scheme ->
      let config = Config.xscale scheme in
      let plain = Runner.run_scheme prep config in
      let probed, _windows = Runner.run_timeline prep config in
      Alcotest.(check bool)
        (Config.scheme_name scheme ^ ": stats bit-identical under a probe")
        true
        (Stats.equal plain probed))
    [
      Config.Baseline;
      wp16;
      Config.Way_memoization;
      Config.Way_prediction;
      Config.Filter_cache { l0_bytes = 512 };
    ]

(* --- resize markers --- *)

let test_resize_markers_in_right_windows () =
  let prep = Lazy.force tiny_prep in
  let n =
    Array.length
      prep.Runner.trace_large.Wayplace.Workloads.Tracer.blocks
  in
  let schedule = [ (n / 4, 2048); (n / 2, 8192) ] in
  let _stats, windows =
    Runner.run_timeline ~schedule ~window_cycles:2048 prep (Config.xscale wp16)
  in
  (* Every marker must lie within the cycle span of the window that
     recorded it. *)
  List.iter
    (fun (w : Sampler.window) ->
      List.iter
        (fun m ->
          let cycle = Sampler.marker_cycle m in
          Alcotest.(check bool) "marker within its window" true
            (w.Sampler.start_cycle <= cycle && cycle <= w.Sampler.end_cycle))
        w.Sampler.markers)
    windows;
  let all_markers = List.concat_map (fun w -> w.Sampler.markers) windows in
  let resizes =
    List.filter_map
      (function
        | Sampler.Resize { area_bytes; _ } -> Some area_bytes
        | Sampler.Flush _ | Sampler.Switch _ -> None)
      all_markers
  in
  Alcotest.(check (list int)) "one resize marker per schedule entry, in order"
    (List.map snd schedule) resizes;
  let flushes =
    List.length
      (List.filter
         (function
           | Sampler.Flush _ -> true
           | Sampler.Resize _ | Sampler.Switch _ -> false)
         all_markers)
  in
  Alcotest.(check int) "each resize flushes" (List.length schedule) flushes;
  (* Marker cycles are non-decreasing across the whole run. *)
  let cycles = List.map Sampler.marker_cycle all_markers in
  Alcotest.(check bool) "marker cycles ordered" true
    (List.sort compare cycles = cycles)

(* --- fast path = reference loop, window for window --- *)

module Simulator = Wayplace.Sim.Simulator
module Compiled_trace = Wayplace.Sim.Compiled_trace
module Tracer = Wayplace.Workloads.Tracer

(* The reference: the sampler attached as a plain probe, which forces
   the per-instruction loop and feeds it one event per access. *)
let reference_timeline ?(schedule = []) ~window_cycles prep config =
  let sampler = Sampler.create ~window_cycles () in
  let stats =
    Simulator.run_compiled ~probe:(Sampler.probe sampler) ~schedule ~config
      ~trace:prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  (stats, Sampler.finish sampler)

let bits = Array.map Int64.bits_of_float

(* Every field, energy bit for bit. *)
let check_same_windows name ?schedule ~window_cycles prep config =
  let fast_stats, fast =
    Runner.run_timeline ?schedule ~window_cycles prep config
  in
  let ref_stats, reference =
    reference_timeline ?schedule ~window_cycles prep config
  in
  if not (Stats.equal fast_stats ref_stats) then
    Alcotest.failf "%s: stats differ:@ %a" name Stats.pp_diff
      (fast_stats, ref_stats);
  Alcotest.(check int) (name ^ ": window count") (List.length reference)
    (List.length fast);
  List.iter2
    (fun (f : Sampler.window) (r : Sampler.window) ->
      let strip (w : Sampler.window) =
        { w with Sampler.energy_pj = [||]; cum_energy_pj = [||] }
      in
      let label = Printf.sprintf "%s: window %d" name r.Sampler.index in
      Alcotest.(check bool) (label ^ " fields") true (strip f = strip r);
      Alcotest.(check bool) (label ^ " energy bits") true
        (bits f.Sampler.energy_pj = bits r.Sampler.energy_pj);
      Alcotest.(check bool) (label ^ " cumulative energy bits") true
        (bits f.Sampler.cum_energy_pj = bits r.Sampler.cum_energy_pj))
    fast reference

(* One reference retire per instruction, with what the instruction
   was: its block position, opcode, pc, fetch kind, whether the fetch
   missed, and the cumulative cycle count at its retire. *)
type retired = {
  k : int;  (** trace block index *)
  i : int;  (** instruction index in the block *)
  pc : int;
  opcode : Wayplace.Isa.Opcode.t;
  kind : Probe.fetch_kind;
  miss : bool;
  cycles : int;
}

let retire_log prep config =
  let compiled = Runner.compiled_for prep config in
  let starts = Compiled_trace.starts compiled in
  let bodies = Compiled_trace.bodies compiled in
  let blocks = prep.Runner.trace_large.Tracer.blocks in
  let sites =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun k id ->
              Array.mapi
                (fun i (instr : Wayplace.Isa.Instr.t) ->
                  ( k,
                    i,
                    starts.(id) + (Wayplace.Isa.Instr.size_bytes * i),
                    instr.Wayplace.Isa.Instr.opcode ))
                bodies.(id))
            blocks))
  in
  let log = ref [] and n = ref 0 in
  let kind = ref Probe.Same_line and miss = ref false in
  let probe = function
    | Probe.Fetch k ->
        kind := k;
        miss := false
    | Probe.Icache_access { hit } -> miss := not hit
    | Probe.Retire { cycles; _ } ->
        let k, i, pc, opcode = sites.(!n) in
        incr n;
        log := { k; i; pc; opcode; kind = !kind; miss = !miss; cycles } :: !log
    | _ -> ()
  in
  ignore
    (Simulator.run_compiled ~probe ~config ~trace:prep.Runner.trace_large
       compiled);
  Array.of_list (List.rev !log)

(* The first instruction (past the warm-up) satisfying [pick]. *)
let find_site log pick =
  let rec go j =
    if j >= Array.length log - 1 then Alcotest.fail "no such instruction"
    else if pick j then j
    else go (j + 1)
  in
  go 100

let base = Config.xscale Config.Baseline

let test_boundary_mid_run () =
  let prep = Lazy.force tiny_prep in
  let log = retire_log prep base in
  let line = base.Config.icache.Wayplace.Cache.Geometry.line_bytes in
  let same_line a b =
    log.(a).k = log.(b).k && log.(a).pc / line = log.(b).pc / line
  in
  let j =
    find_site log (fun j ->
        same_line (j - 1) j && same_line j (j + 1)
        && log.(j).kind = Probe.Same_line)
  in
  (* the first boundary lands on instruction [j], inside a run *)
  check_same_windows "boundary mid-run" ~window_cycles:log.(j).cycles prep base

let test_boundary_on_missing_head () =
  let prep = Lazy.force tiny_prep in
  let log = retire_log prep base in
  let j =
    find_site log (fun j -> log.(j).kind = Probe.Full && log.(j).miss)
  in
  Alcotest.(check bool) "the miss stalls" true
    (log.(j).cycles - log.(j - 1).cycles > 1);
  (* the boundary falls inside the head's miss stall *)
  check_same_windows "boundary on a missing run head"
    ~window_cycles:(log.(j - 1).cycles + 1)
    prep base

let test_mispredict_crosses_boundary () =
  let prep = Lazy.force tiny_prep in
  let log = retire_log prep base in
  let penalty = base.Config.mispredict_penalty in
  let j =
    find_site log (fun j ->
        log.(j).opcode = Wayplace.Isa.Opcode.Branch
        && log.(j).kind = Probe.Same_line
        && log.(j).cycles - log.(j - 1).cycles = 1 + penalty)
  in
  (* the boundary falls inside the branch's mispredict penalty *)
  check_same_windows "mispredict penalty across a boundary"
    ~window_cycles:(log.(j - 1).cycles + 2)
    prep base

let test_resize_first_and_last_block () =
  let prep = Lazy.force tiny_prep in
  let n = Array.length prep.Runner.trace_large.Tracer.blocks in
  let schedule = [ (0, 2048); (n / 2, 4096); (n - 1, 8192) ] in
  List.iter
    (fun window_cycles ->
      check_same_windows
        (Printf.sprintf "resizes at blocks 0 and %d, window %d" (n - 1)
           window_cycles)
        ~schedule ~window_cycles prep (Config.xscale wp16))
    [ 7; 2048 ];
  let _stats, windows =
    Runner.run_timeline ~schedule ~window_cycles:2048 prep (Config.xscale wp16)
  in
  let resizes =
    List.concat_map
      (fun (w : Sampler.window) ->
        List.filter_map
          (function
            | Sampler.Resize { area_bytes; _ } -> Some area_bytes
            | Sampler.Flush _ | Sampler.Switch _ -> None)
          w.Sampler.markers)
      windows
  in
  Alcotest.(check (list int)) "every resize marked" [ 2048; 4096; 8192 ] resizes

let drowsy =
  Config.with_drowsy (Config.with_leakage (Config.xscale Config.Baseline) true)
    (Some 64)

let test_drowsy_windows () =
  let prep = Lazy.force tiny_prep in
  List.iter
    (fun window_cycles ->
      check_same_windows
        (Printf.sprintf "drowsy, window %d" window_cycles)
        ~window_cycles prep drowsy)
    [ 1; 97; 2048 ]

let test_window_of_one_cycle () =
  let prep = Lazy.force tiny_prep in
  List.iter
    (fun scheme ->
      check_same_windows
        (Config.scheme_name scheme ^ ", window 1")
        ~window_cycles:1 prep (Config.xscale scheme))
    [
      Config.Baseline;
      wp16;
      Config.Way_memoization;
      Config.Way_prediction;
      Config.Filter_cache { l0_bytes = 512 };
    ]

(* --- CSV export --- *)

let test_timeline_csv_shape () =
  let _stats, windows = timeline (Config.xscale wp16) in
  let rows = Timeline.csv_rows windows in
  Alcotest.(check int) "one row per window" (List.length windows)
    (List.length rows);
  let width = List.length Timeline.csv_header in
  List.iter
    (fun row ->
      Alcotest.(check int) "row width matches header" width (List.length row))
    rows;
  (* The window column counts up from 0. *)
  List.iteri
    (fun i row -> Alcotest.(check string) "window id" (string_of_int i) (List.hd row))
    rows

(* --- Chrome trace-event export --- *)

(* Hand-rolled scans over the rendered JSON: count key occurrences and
   collect every "ts" value in stream order. *)
let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let count = ref 0 in
  for i = 0 to nh - nn do
    if String.sub hay i nn = needle then incr count
  done;
  !count

let ts_values s =
  let key = "\"ts\":" in
  let klen = String.length key in
  let n = String.length s in
  let rec find i acc =
    if i + klen > n then List.rev acc
    else if String.sub s i klen = key then begin
      let j = ref (i + klen) in
      while
        !j < n && (match s.[!j] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr j
      done;
      find !j (int_of_string (String.sub s (i + klen) (!j - i - klen)) :: acc)
    end
    else find (i + 1) acc
  in
  find 0 []

let test_chrome_trace_structure () =
  let prep = Lazy.force tiny_prep in
  let n =
    Array.length prep.Runner.trace_large.Wayplace.Workloads.Tracer.blocks
  in
  let _stats, windows =
    Runner.run_timeline
      ~schedule:[ (n / 2, 2048) ]
      ~window_cycles:2048 prep (Config.xscale wp16)
  in
  let s = Report.json_to_string (Timeline.chrome_trace windows) in
  Alcotest.(check bool) "top-level traceEvents array" true
    (count_substring s "\"traceEvents\":[" = 1);
  Alcotest.(check bool) "displayTimeUnit present" true
    (count_substring s "\"displayTimeUnit\":\"ns\"" = 1);
  (* Every event carries the required ph/ts/pid triple. *)
  let events = count_substring s "\"ph\":" in
  Alcotest.(check bool) "events present" true (events > 0);
  Alcotest.(check int) "every event has a ts" events (count_substring s "\"ts\":");
  Alcotest.(check int) "every event has a pid" events
    (count_substring s "\"pid\":");
  Alcotest.(check int) "exactly one metadata event" 1
    (count_substring s "\"ph\":\"M\"");
  Alcotest.(check bool) "counter events present" true
    (count_substring s "\"ph\":\"C\"" > 0);
  Alcotest.(check bool) "instant event for the resize" true
    (count_substring s "\"ph\":\"i\"" >= 1);
  Alcotest.(check bool) "resize payload present" true
    (count_substring s "\"area_bytes\":2048" = 1);
  (* Timestamps are non-decreasing in stream order (Perfetto accepts
     unsorted input, chrome://tracing is happier sorted). *)
  let ts = ts_values s in
  Alcotest.(check int) "one ts per event" events (List.length ts);
  Alcotest.(check bool) "timestamps monotone" true
    (List.sort compare ts = ts)

let test_chrome_trace_empty () =
  let s = Report.json_to_string (Timeline.chrome_trace []) in
  (* Still a valid trace: the metadata event alone. *)
  Alcotest.(check int) "only the metadata event" 1
    (count_substring s "\"ph\":")

let () =
  Alcotest.run "obs"
    [
      ( "sampler",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
          Alcotest.test_case "aggregate events" `Quick test_aggregate_events;
          Alcotest.test_case "fetch_run aggregates its tail" `Quick
            test_fetch_run_aggregates;
          Alcotest.test_case "window boundaries" `Quick test_window_boundaries;
          Alcotest.test_case "conservation: baseline" `Quick
            test_conservation_baseline;
          Alcotest.test_case "conservation: way-placement" `Quick
            test_conservation_wayplace;
          Alcotest.test_case "conservation: drowsy" `Quick
            test_conservation_drowsy;
          Alcotest.test_case "probe leaves stats identical" `Quick
            test_probe_leaves_stats_identical;
          Alcotest.test_case "resize markers" `Quick
            test_resize_markers_in_right_windows;
        ] );
      ( "windows",
        [
          Alcotest.test_case "boundary mid-run" `Quick test_boundary_mid_run;
          Alcotest.test_case "boundary on a missing run head" `Quick
            test_boundary_on_missing_head;
          Alcotest.test_case "mispredict penalty across a boundary" `Quick
            test_mispredict_crosses_boundary;
          Alcotest.test_case "resize at the first and last block" `Quick
            test_resize_first_and_last_block;
          Alcotest.test_case "drowsy" `Quick test_drowsy_windows;
          Alcotest.test_case "window_cycles = 1" `Quick
            test_window_of_one_cycle;
        ] );
      ( "export",
        [
          Alcotest.test_case "CSV shape" `Quick test_timeline_csv_shape;
          Alcotest.test_case "Chrome trace structure" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "Chrome trace of no windows" `Quick
            test_chrome_trace_empty;
        ] );
    ]
