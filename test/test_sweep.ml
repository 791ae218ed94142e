(* Tests for the parallel sweep engine: job keying, dedup/baseline
   expansion, memoisation, result ordering, progress reporting, error
   propagation — and the headline guarantee, bit-identical results
   between the sequential fallback and the domain pool. *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Sweep = Wayplace.Sim.Sweep

let wp16 = Config.Way_placement { area_bytes = 16 * 1024 }
let job benchmark config = { Sweep.benchmark; config }

(* A small but heterogeneous grid: two benchmarks x two schemes, plus
   the shared baselines. *)
let small_grid =
  Sweep.with_baselines
    [
      job "crc" (Config.xscale wp16);
      job "susan_c" (Config.xscale wp16);
      job "crc" (Config.xscale Config.Way_memoization);
      job "susan_c" (Config.xscale Config.Way_memoization);
    ]

(* --- keys, dedup, baseline expansion (pure) --- *)

let test_job_key_stable_and_distinct () =
  let j1 = job "crc" (Config.xscale wp16) in
  let j2 = job "crc" (Config.xscale wp16) in
  Alcotest.(check string) "equal jobs, equal keys" (Sweep.job_key j1)
    (Sweep.job_key j2);
  Alcotest.(check bool) "benchmark participates" false
    (Sweep.job_key j1 = Sweep.job_key (job "susan_c" (Config.xscale wp16)));
  Alcotest.(check bool) "scheme participates" false
    (Sweep.job_key j1 = Sweep.job_key (job "crc" (Config.xscale Config.Baseline)))

(* The ad-hoc printed key this module replaced omitted several config
   fields (memory latency among them), silently merging distinct
   configs; the marshalled key must separate every field. *)
let test_config_key_covers_all_fields () =
  let base = Config.xscale Config.Baseline in
  let slower = { base with Config.memory_latency = base.Config.memory_latency + 1 } in
  Alcotest.(check bool) "memory latency participates" false
    (Sweep.config_key base = Sweep.config_key slower);
  let filter b = Config.xscale (Config.Filter_cache { l0_bytes = b }) in
  Alcotest.(check bool) "filter L0 size participates" false
    (Sweep.config_key (filter 512) = Sweep.config_key (filter 1024))

(* Equal configs must key equally whatever their sharing: [xscale]
   builds [icache] and [dcache] as one physical geometry, [with_icache]
   of an equal geometry makes them two.  Keyed with Marshal's sharing
   on, the figure grids simulated such cells twice. *)
let test_config_key_ignores_sharing () =
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
      Alcotest.(check string) "equal configs, equal keys"
        (Sweep.config_key shared) (Sweep.config_key copied);
      Alcotest.(check int) "dedup keeps one" 1
        (List.length (Sweep.dedup [ job "crc" shared; job "crc" copied ])))
    [ Config.Baseline; wp16 ]

let test_dedup () =
  let a = job "crc" (Config.xscale wp16) in
  let b = job "crc" (Config.xscale Config.Baseline) in
  Alcotest.(check int) "duplicates removed" 2
    (List.length (Sweep.dedup [ a; b; a; b; a ]));
  match Sweep.dedup [ b; a; b ] with
  | [ first; second ] ->
      Alcotest.(check string) "first occurrence order kept" (Sweep.job_key b)
        (Sweep.job_key first);
      Alcotest.(check string) "second kept" (Sweep.job_key a)
        (Sweep.job_key second)
  | other -> Alcotest.failf "expected 2 jobs, got %d" (List.length other)

let test_with_baselines () =
  let scheme_job = job "crc" (Config.xscale wp16) in
  let expanded = Sweep.with_baselines [ scheme_job ] in
  Alcotest.(check int) "scheme + baseline" 2 (List.length expanded);
  let baseline_job = job "crc" (Config.xscale Config.Baseline) in
  Alcotest.(check bool) "baseline partner present" true
    (List.exists
       (fun j -> Sweep.job_key j = Sweep.job_key baseline_job)
       expanded);
  (* A baseline job's partner is itself: no duplicate appears, and the
     elision flag (etc.) of the scheme config carries over. *)
  let off = Config.with_same_line_elision (Config.xscale wp16) false in
  let expanded = Sweep.with_baselines [ job "crc" off ] in
  Alcotest.(check int) "distinct baseline per elision flag" 2
    (List.length expanded);
  Alcotest.(check bool) "partner keeps elision off" true
    (List.exists
       (fun (j : Sweep.job) -> j.Sweep.config.Config.same_line_elision = false)
       (List.filter
          (fun (j : Sweep.job) -> j.Sweep.config.Config.scheme = Config.Baseline)
          expanded))

(* --- the parallel guarantee: bit-identical stats --- *)

(* Stats.equal is exact (no float tolerance), and Stats.pp_diff names
   exactly the fields that disagree — so a failure here reads like the
   old 30-line field-by-field checker without being one. *)
let check_stats_identical label (a : Stats.t) (b : Stats.t) =
  if not (Stats.equal a b) then
    Alcotest.failf "%s: runs differ:@.%a" label Stats.pp_diff (a, b)

let test_sequential_parallel_identical () =
  let sequential = Sweep.create ~workers:1 () in
  let parallel = Sweep.create ~workers:3 () in
  let seq_stats = Sweep.run_batch sequential small_grid in
  let par_stats = Sweep.run_batch parallel small_grid in
  Alcotest.(check int) "same cardinality" (List.length seq_stats)
    (List.length par_stats);
  List.iteri
    (fun i (s, p) ->
      check_stats_identical
        (Printf.sprintf "job %d (%s)"
           i
           (Sweep.job_label (List.nth small_grid i)))
        s p)
    (List.combine seq_stats par_stats)

(* --- memoisation and ordering --- *)

let test_run_batch_order_and_memoisation () =
  let t = Sweep.create ~workers:2 () in
  let a = job "crc" (Config.xscale wp16) in
  let b = job "crc" (Config.xscale Config.Baseline) in
  match Sweep.run_batch t [ a; b; a ] with
  | [ s1; s2; s3 ] ->
      Alcotest.(check bool) "duplicate job returns the memoised value" true
        (s1 == s3);
      Alcotest.(check bool) "distinct jobs differ" true (not (s1 == s2));
      Alcotest.(check int) "two unique jobs cached" 2 (Sweep.completed t);
      (* a second batch is pure cache hits *)
      let again = Sweep.run_batch t [ a; b ] in
      Alcotest.(check bool) "cache hit returns same value" true
        (List.nth again 0 == s1);
      Alcotest.(check int) "no new jobs" 2 (Sweep.completed t)
  | other -> Alcotest.failf "expected 3 results, got %d" (List.length other)

let test_stats_memoises_prepare () =
  let t = Sweep.create ~workers:1 () in
  let p1 = Sweep.prepared t "crc" in
  let p2 = Sweep.prepared t "crc" in
  Alcotest.(check bool) "prepare memoised" true (p1 == p2)

(* --- progress reporting --- *)

let test_progress_reporting () =
  let events = ref [] in
  let progress job ~seconds ~completed ~total =
    events := (Sweep.job_key job, seconds, completed, total) :: !events
  in
  let t = Sweep.create ~workers:2 ~progress () in
  let n = List.length small_grid in
  ignore (Sweep.run_batch t small_grid);
  let seen = List.rev !events in
  Alcotest.(check int) "one event per unique job" n (List.length seen);
  List.iteri
    (fun i (_, seconds, completed, total) ->
      Alcotest.(check int) "completion order" (i + 1) completed;
      Alcotest.(check int) "total" n total;
      Alcotest.(check bool) "non-negative timing" true (seconds >= 0.0))
    seen;
  (* cached reruns emit nothing *)
  events := [];
  ignore (Sweep.run_batch t small_grid);
  Alcotest.(check int) "no events for cache hits" 0 (List.length !events)

(* --- error propagation --- *)

exception Progress_boom

let test_progress_raise_propagates () =
  (* A progress callback that raises runs on the coordinating thread;
     the pool must surface the exception to the caller instead of
     deadlocking on workers still waiting for jobs. *)
  List.iter
    (fun workers ->
      let progress _job ~seconds:_ ~completed ~total:_ =
        if completed = 2 then raise Progress_boom
      in
      let t = Sweep.create ~workers ~progress () in
      Alcotest.check_raises
        (Printf.sprintf "progress raise surfaces (workers=%d)" workers)
        Progress_boom
        (fun () -> ignore (Sweep.run_batch t small_grid)))
    [ 1; 3 ]

let test_failure_propagates () =
  List.iter
    (fun workers ->
      let t = Sweep.create ~workers () in
      let bad = job "no_such_benchmark" (Config.xscale Config.Baseline) in
      Alcotest.check_raises
        (Printf.sprintf "unknown benchmark raises (workers=%d)" workers)
        Not_found
        (fun () -> ignore (Sweep.run_batch t [ bad ])))
    [ 1; 2 ]

(* --- the pool's error paths and the persistent executor --- *)

exception Job_boom

let test_map_raising_job_no_deadlock () =
  (* the all-or-nothing contract: a raising job surfaces its exception
     (after every domain is joined — a deadlock here would hang the
     test), and completed side effects survive *)
  List.iter
    (fun workers ->
      let completed = Atomic.make 0 in
      Alcotest.check_raises
        (Printf.sprintf "job raise surfaces (workers=%d)" workers)
        Job_boom
        (fun () ->
          ignore
            (Sweep.Pool.map ~workers
               (fun i ->
                 if i = 1 then raise Job_boom
                 else begin
                   Atomic.incr completed;
                   i
                 end)
               [ 0; 1; 2; 3; 4; 5 ]));
      (* at least the pre-failure item ran and its effect is visible *)
      Alcotest.(check bool)
        (Printf.sprintf "unrelated side effects survive (workers=%d)" workers)
        true
        (Atomic.get completed >= 1))
    [ 1; 3 ]

let test_map_result_isolates_failures () =
  List.iter
    (fun workers ->
      let results =
        Sweep.Pool.map_result ~workers
          (fun i -> if i mod 2 = 0 then raise Job_boom else i * 10)
          [ 0; 1; 2; 3; 4 ]
      in
      let describe = function
        | Ok v -> Printf.sprintf "ok:%d" v
        | Error Job_boom -> "boom"
        | Error e -> Printexc.to_string e
      in
      Alcotest.(check (list string))
        (Printf.sprintf "every item answered (workers=%d)" workers)
        [ "boom"; "ok:10"; "boom"; "ok:30"; "boom" ]
        (List.map describe results))
    [ 1; 4 ]

let test_executor_drains_on_shutdown () =
  let exec = Sweep.Pool.Executor.create ~workers:2 () in
  Alcotest.(check int) "workers spawned" 2 (Sweep.Pool.Executor.workers exec);
  let count = Atomic.make 0 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "submission accepted" true
      (Sweep.Pool.Executor.submit exec (fun () -> Atomic.incr count))
  done;
  Sweep.Pool.Executor.shutdown exec;
  Alcotest.(check int) "every accepted task ran before shutdown returned" 100
    (Atomic.get count);
  Alcotest.(check bool) "submissions refused after shutdown" false
    (Sweep.Pool.Executor.submit exec (fun () -> Atomic.incr count));
  Alcotest.(check int) "refused task did not run" 100 (Atomic.get count);
  (* idempotent *)
  Sweep.Pool.Executor.shutdown exec

let test_executor_survives_raising_task () =
  let seen = Atomic.make 0 in
  let exec =
    Sweep.Pool.Executor.create ~workers:1
      ~on_error:(fun _ -> Atomic.incr seen)
      ()
  in
  let count = Atomic.make 0 in
  ignore (Sweep.Pool.Executor.submit exec (fun () -> raise Job_boom));
  for _ = 1 to 10 do
    ignore (Sweep.Pool.Executor.submit exec (fun () -> Atomic.incr count))
  done;
  ignore (Sweep.Pool.Executor.submit exec (fun () -> raise Job_boom));
  Sweep.Pool.Executor.shutdown exec;
  Alcotest.(check int) "the domain survived both raising tasks" 10
    (Atomic.get count);
  Alcotest.(check int) "error callback saw both" 2 (Atomic.get seen)

let () =
  Alcotest.run "sweep"
    [
      ( "keys",
        [
          Alcotest.test_case "job key" `Quick test_job_key_stable_and_distinct;
          Alcotest.test_case "config key completeness" `Quick
            test_config_key_covers_all_fields;
          Alcotest.test_case "config key ignores sharing" `Quick
            test_config_key_ignores_sharing;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "with_baselines" `Quick test_with_baselines;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sequential = parallel (bit-identical)" `Quick
            test_sequential_parallel_identical;
          Alcotest.test_case "ordering + memoisation" `Quick
            test_run_batch_order_and_memoisation;
          Alcotest.test_case "prepare memoised" `Quick test_stats_memoises_prepare;
          Alcotest.test_case "progress" `Quick test_progress_reporting;
          Alcotest.test_case "failure propagation" `Quick test_failure_propagates;
          Alcotest.test_case "raising progress callback" `Quick
            test_progress_raise_propagates;
        ] );
      ( "pool",
        [
          Alcotest.test_case "raising job: no deadlock, effects survive" `Quick
            test_map_raising_job_no_deadlock;
          Alcotest.test_case "map_result isolates failures" `Quick
            test_map_result_isolates_failures;
          Alcotest.test_case "executor drains on shutdown" `Quick
            test_executor_drains_on_shutdown;
          Alcotest.test_case "executor survives raising tasks" `Quick
            test_executor_survives_raising_task;
        ] );
    ]
