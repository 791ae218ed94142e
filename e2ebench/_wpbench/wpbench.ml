(* The repository benchmark.

     wpbench --workload W --seed N --seconds S --trace 0|1
     wpbench --write-digests e2ebench/digests.txt

   Build and run it through e2ebench/run.sh, which passes its arguments
   on.

   Workloads: figure_grid, loop_ff, observed, serve_mix (see README.md
   next to this file).  Prints one line per metric, a host/build stamp,
   and as its last line a JSON object with the keys correct, attempted,
   failed and metrics: the end-to-end metrics, or with --trace 1 the
   per-layer metrics of a separate traced run.  Exits 1 if any output
   differs from the library or the recorded digests. *)

open Util

(* name, unit *)
let end_to_end =
  [
    ("setup_s", "s"); ("run_s", "s"); ("sim_mips", "Minstr/s"); ("peak_rss_mb", "MB");
    ("norm_icache_energy", "ratio"); ("norm_ed", "ratio"); ("req_p50_ms", "ms");
    ("req_p99_ms", "ms"); ("req_per_s", "1/s");
  ]

let per_layer =
  let stages =
    [ "runner.prepare_s"; "workloads.generate_s"; "workloads.profile_s"; "workloads.trace_s";
      "layout.place_s"; "compiled_trace.make_s" ]
  in
  List.map (fun n -> (n, "s")) stages
  @ List.map (fun s -> ("simulator." ^ s ^ ".ns_per_instr", "ns"))
      [ "baseline"; "wayplace"; "waymemo"; "waypred"; "filter" ]
  @ [
      ("simulator.instrs", "count"); ("steady_state.skipped_frac", "ratio");
      ("steady_state.converged_frac", "ratio"); ("steady_state.cache_hit_frac", "ratio");
      ("steady_state.budget_exhausted", "count"); ("sweep.busy_frac", "ratio");
      ("sweep.job_p50_ms", "ms"); ("sweep.job_p99_ms", "ms");
      ("obs.timeline.ns_per_instr", "ns"); ("obs.resized.ns_per_instr", "ns");
      ("obs.windows", "count"); ("advise.analyze_ms", "ms"); ("advise.analyze_s", "s");
      ("advise.schedule_points", "count");
    ]
  @ List.concat_map
      (fun kind ->
        List.concat_map
          (fun src ->
            [ (Printf.sprintf "serve.%s.%s_p50_ms" kind src, "ms");
              (Printf.sprintf "serve.%s.%s_p99_ms" kind src, "ms") ])
          [ "computed"; "memory" ])
      [ "sim"; "mp"; "advise" ]
  @ [
      ("serve.grid.p50_ms", "ms"); ("serve.hit_ratio", "ratio"); ("serve.coalesced", "count");
      ("serve.errors", "count"); ("serve.store_entries", "count");
      ("loadgen.late_p99_ms", "ms"); ("loadgen.offered_frac", "ratio"); ("trace.overhead_s", "s");
    ]

let workloads = [ "figure_grid"; "loop_ff"; "observed"; "serve_mix" ]

(* ------------------------------------------------------------------ *)
(* Recording the reference results, through the reference loop.        *)

let write_digests path =
  let module Pool = Cells.Pool in
  let module Simulator = Cells.Simulator in
  let module P = Serve_mix.P in
  let workers = Domain.recommended_domain_count () in
  let preps = Hashtbl.create 32 in
  List.iter
    (fun (s : Wayplace.Workloads.Spec.t) -> Hashtbl.replace preps s.name (Runner.prepare s))
    (Mibench.all @ Mibench.loops);
  let reference name config =
    let p : Runner.prepared = Hashtbl.find preps name in
    Simulator.run_reference ~config ~program:p.program ~layout:(Runner.layout_for p config)
      ~trace:p.trace_large
  in
  let reply id r = ("reply:" ^ id, Option.get (Serve_mix.reply_fingerprint r)) in
  let serve_cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun g -> List.map (fun s -> (b, Cells.cfg g s)) five_schemes)
          [ (32, 32); (16, 8) ])
      Mibench.names
  in
  let cells =
    List.map (fun (j : Cells.Sweep.job) -> (j.benchmark, j.config)) (Cells.figure_grid_jobs ())
    @ serve_cells
    @ List.concat_map
        (fun b -> List.map (fun c -> (b, c)) (Cells.loop_configs ()))
        Mibench.loop_names
  in
  let cells = List.sort_uniq compare (List.map (fun (b, c) -> (Cells.cell_id b c, (b, c))) cells) in
  let rows =
    Pool.map ~workers
      (fun (id, (b, c)) ->
        let stats = reference b c in
        (id, stats_digest stats)
        :: (if List.mem (b, c) serve_cells then
              [ reply ("sim:" ^ id) (P.Sim_reply (P.sim_result_of_stats ~key:"" ~source:P.Computed stats)) ]
            else []))
      cells
  in
  let observed =
    Pool.map ~workers
      (fun name ->
        let p = Hashtbl.find preps name in
        let o = Cells.observe ~parent:0 name p in
        let resized =
          Simulator.run_with_resizes ~schedule:o.report.schedule ~config:Cells.wp16 ~program:p.program
            ~layout:p.placed_layout ~trace:p.trace_large
        in
        [ (name ^ ":resized:" ^ config_label Cells.wp16, stats_digest resized);
          (name ^ ":plain:" ^ config_label Cells.base, stats_digest (reference name Cells.base)) ]
        @
        if List.mem name Mibench.names then
          [ reply ("advise:" ^ name)
              (P.Advise_reply (P.advise_result_of_report ~key:"" ~source:P.Computed o.report)) ]
        else [])
      (Mibench.names @ Mibench.loop_names)
  in
  let mp =
    List.concat_map
      (fun mix ->
        List.map
          (fun quantum ->
            let config = Config.xscale (wp 16) in
            let m = Result.get_ok (Wayplace.Mp.Mix.of_names (String.split_on_char ',' mix)) in
            let options = { Wayplace.Mp.Machine.default_options with quantum_cycles = quantum } in
            let r = Wayplace.Mp.Machine.run ~reference_only:true ~config ~options m in
            reply
              (Printf.sprintf "mp:%s:q%d:%s" mix quantum (config_label config))
              (P.Mp_reply
                 (P.mp_result_of_stats ~key:"" ~source:P.Computed
                    ~processes:(List.length r.processes) ~switches:r.switches
                    ~kernel_runs:r.kernel_runs r.aggregate)))
          Serve_mix.mp_quanta)
      Serve_mix.mp_mixes
  in
  let all = List.concat rows @ List.concat observed @ mp in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (id, d) -> Printf.fprintf oc "%s %s\n" id d) all);
  Printf.printf "wrote %d digests to %s\n" (List.length all) path

(* ------------------------------------------------------------------ *)

let usage =
  "usage: wpbench --workload (figure_grid|loop_ff|observed|serve_mix) --seed N --seconds S \
   --trace 0|1 [--cli PATH] [--digests PATH] [--out DIR]\n\
  \       wpbench --write-digests PATH"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref ".bench_build/ws/_build/default/bin/wayplace_cli.exe" in
  let digests = ref "e2ebench/digests.txt" and out = ref ".bench_out" in
  let write = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the cell order and the request schedule");
      ("--seconds", Arg.Set_float seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics of a traced run");
      ("--cli", Arg.Set_string cli, "PATH wayplace_cli executable (serve_mix)");
      ("--digests", Arg.Set_string digests, "PATH recorded reference results");
      ("--out", Arg.Set_string out, "DIR where traces and results are written");
      ("--write-digests", Arg.Set_string write, "PATH record the reference results (reference loop)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !write <> "" then (write_digests !write; exit 0);
  if not (List.mem !workload workloads) || !trace < 0 || !trace > 1 || !seconds <= 0.0 then begin
    prerr_endline usage;
    exit 2
  end;
  let ctx =
    {
      Cells.seed = !seed; seconds = !seconds; trace = !trace = 1;
      digests = load_digests !digests; e2e = Hashtbl.create 16; layer = Hashtbl.create 64;
      attempted = 0; failed = 0;
    }
  in
  if Hashtbl.length ctx.digests = 0 then begin
    Printf.eprintf "wpbench: no digests at %s\n" !digests;
    exit 2
  end;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  (try
     match !workload with
     | "figure_grid" -> Cells.figure_grid ctx
     | "loop_ff" -> Cells.loop_ff ctx
     | "observed" -> Cells.observed ctx
     | _ -> Serve_mix.run ctx ~cli:!cli ~out:!out
   with e ->
     Printf.eprintf "wpbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
     exit 1);
  let prefix = Printf.sprintf "%s-seed%d" !workload !seed in
  if ctx.trace then begin
    let table = Span.write ~dir:!out ~prefix in
    prerr_string table;
    Printf.eprintf "tracing overhead: %+.4f s (traced run_s - untraced run_s)\n%!"
      (Option.value ~default:0.0 (Hashtbl.find_opt ctx.layer "trace.overhead_s"))
  end;
  let module R = Wayplace.Sim.Report in
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  let stamp =
    R.Jobj
      [
        ("workload", R.Jstring !workload); ("seed", R.Jint !seed);
        ("seconds", R.Jfloat !seconds); ("trace", R.Jint !trace);
        ("nproc", R.Jint (Domain.recommended_domain_count ())); ("workers", R.Jint Cells.workers);
        ("connections", R.Jint (if !workload = "serve_mix" then Serve_mix.connections else 0));
        ("ocaml", R.Jstring Sys.ocaml_version); ("dune_profile", R.Jstring (env "WPBENCH_PROFILE"));
        ("commit", R.Jstring (env "WPBENCH_COMMIT"));
      ]
  in
  let chosen, table = if ctx.trace then (per_layer, ctx.layer) else (end_to_end, ctx.e2e) in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v =
          match Hashtbl.find_opt table name with
          | Some v -> v
          | None when ctx.trace -> 0.0
          | None -> failwith ("metric not measured: " ^ name)
        in
        (name, unit_, v))
      chosen
  in
  let failed_frac = float_of_int ctx.failed /. float_of_int (max 1 ctx.attempted) in
  List.iter (fun (n, u, v) -> Printf.printf "%-34s %16.6f %s\n" n v u) metrics;
  Printf.printf "%-34s %16.6f %s\n" "failed_frac" failed_frac "ratio";
  Printf.printf "stamp %s\n" (R.json_to_string stamp);
  let json_metrics =
    R.Jobj
      (List.map
         (fun (n, u, v) -> (n, R.Jobj [ ("value", R.Jfloat v); ("unit", R.Jstring u) ]))
         metrics)
  in
  let correct = ctx.failed = 0 && ctx.attempted > 0 in
  let result =
    R.Jobj
      [
        ("correct", R.Jbool correct); ("attempted", R.Jint (max 1 ctx.attempted));
        ("failed", R.Jint ctx.failed); ("metrics", json_metrics);
      ]
  in
  ignore
    (R.write_json
       ~path:(Filename.concat !out (prefix ^ (if ctx.trace then "-layers" else "") ^ ".json"))
       (R.Jobj [ ("stamp", stamp); ("result", result) ]));
  print_endline (R.json_to_string result);
  exit (if correct then 0 else 1)
