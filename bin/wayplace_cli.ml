(* Command-line front end: run one benchmark under one configuration,
   sweep a benchmark x configuration grid on a domain pool, inspect a
   benchmark's layout, dump profiles and block orders, or list the
   suite.

     dune exec bin/wayplace_cli.exe -- run -b crc -s wayplace -a 16
     dune exec bin/wayplace_cli.exe -- sweep -b crc,susan_c -s wayplace,waymemo -j 4
     dune exec bin/wayplace_cli.exe -- sweep --sizes 8,16,32 --ways-list 8,16,32 --csv grid.csv
     dune exec bin/wayplace_cli.exe -- timeline -b crc -s wayplace --window 5000 --chrome crc.trace.json
     dune exec bin/wayplace_cli.exe -- layout -b ispell
     dune exec bin/wayplace_cli.exe -- profile -b crc -o crc.profile
     dune exec bin/wayplace_cli.exe -- layout -b crc --profile crc.profile
     dune exec bin/wayplace_cli.exe -- serve --socket /tmp/wp.sock --store /tmp/wp-store
     dune exec bin/wayplace_cli.exe -- loadtest --socket /tmp/wp.sock -n 2000 -c 8
     dune exec bin/wayplace_cli.exe -- list *)

open Cmdliner
module Config = Wayplace.Sim.Config
module Mibench = Wayplace.Workloads.Mibench
module P = Wayplace.Serve.Protocol

let ( let* ) = Result.bind

(* --- one exit policy, one output sink --- *)

(* A command's outcome as its exit code: [Ok code] exits [code], an
   [Error] prints one error line and exits 1.  Commands fold a failed
   write in as [max code 1], so lint's and advise's severities 2/3
   survive it. *)
let exit_code = function
  | Ok code -> code
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      1

(* Attempt every requested output [(what, path, write)], in order: a
   success prints "wrote PATH" plus the note [write] returns, a failure
   prints an error line and the next output is still attempted.
   Returns whether any write failed. *)
let write_outputs ?(quiet = false) outputs =
  List.fold_left
    (fun failed (what, path, write) ->
      match path with
      | None -> failed
      | Some path -> (
          match write path with
          | Ok note ->
              if not quiet then Printf.printf "wrote %s%s\n%!" path note;
              failed
          | Error msg ->
              Format.eprintf "error: writing %s %s: %s@." what path msg;
              true))
    false outputs

let noted note result = Result.map (fun () -> note) result
let plain result = noted "" result

(* A text file as a [write_outputs] writer. *)
let save_text ~note text path =
  noted note (Wayplace.Sim.Report.write_file ~path (fun oc -> output_string oc text))

(* A command that ends with its outputs: exit 1 if any of them failed. *)
let write_all ?quiet outputs = Ok (Bool.to_int (write_outputs ?quiet outputs))

(* [List.map] for a fallible [f]: stops at the first error. *)
let map_result f items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] items

(* [Ok ()] when two runs are bit-identical, else [what] and the diff. *)
let same_stats what a b =
  if Wayplace.Sim.Stats.equal a b then Ok ()
  else Error (Format.asprintf "%s:@ %a" what Wayplace.Sim.Stats.pp_diff (a, b))

(* --- flags shared by the subcommands --- *)

(* A converter that ignores blanks around the value, so list entries
   like "8, 16" parse as they always have. *)
let trimmed conv =
  Arg.conv
    ( (fun s -> Arg.conv_parser conv (String.trim s)),
      Arg.conv_printer conv )

let int_list = Arg.list (trimmed Arg.int)

(* Parses through the protocol's name table; prints the wire name. *)
let scheme_conv =
  Arg.conv
    ( Arg.conv_parser (trimmed (Arg.enum P.scheme_names)),
      fun ppf s -> Format.pp_print_string ppf (P.scheme_to_string s) )
let scheme_named name = List.assoc name P.scheme_names

(* The [-a KB] area applies to way-placement only. *)
let with_area area_kb = function
  | Config.Way_placement _ -> Config.Way_placement { area_bytes = area_kb * 1024 }
  | scheme -> scheme

let benchmark_arg =
  let doc = "Benchmark name (see the list subcommand)." in
  Arg.(value & opt string "crc" & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let scheme_arg =
  let doc = "Scheme: baseline, wayplace, waymemo, waypred or filter." in
  Arg.(
    value
    & opt scheme_conv (scheme_named "wayplace")
    & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let area_arg =
  let doc = "Way-placement area size in KB." in
  Arg.(value & opt int 16 & info [ "a"; "area" ] ~docv:"KB" ~doc)

let size_arg =
  let doc = "Instruction cache size in KB." in
  Arg.(value & opt int 32 & info [ "size" ] ~docv:"KB" ~doc)

let ways_arg =
  let doc = "Instruction cache associativity." in
  Arg.(value & opt int 32 & info [ "ways" ] ~docv:"N" ~doc)

let line_arg =
  let doc = "Cache line size in bytes." in
  Arg.(value & opt int 32 & info [ "line" ] ~docv:"B" ~doc)

(* An output file flag, unset by default. *)
let file_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* One benchmark under one machine, as the daemon's [Sim] request
   describes it. *)
let sim_request_term =
  Term.(
    const (fun benchmark scheme area size_kb ways line_bytes ->
        P.sim_request ~size_kb ~ways ~line_bytes ~benchmark
          ~scheme:(with_area area scheme) ())
    $ benchmark_arg $ scheme_arg $ area_arg $ size_arg $ ways_arg $ line_arg)

let find_spec name =
  match Mibench.find name with
  | spec -> Ok spec
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown benchmark %S; try the list subcommand" name)

let no_fastforward_arg =
  let doc =
    "Disable the steady-state loop fast-forward for this invocation \
     (results are bit-identical either way; the flag exists for timing \
     comparisons and debugging)."
  in
  Arg.(value & flag & info [ "no-fastforward" ] ~doc)

let ff_stats_arg =
  let doc =
    "Print steady-state fast-forward statistics for the scheme run \
     (periodic regions attempted, converged, iterations and instructions \
     skipped)."
  in
  Arg.(value & flag & info [ "ff-stats" ] ~doc)

let check_ff_arg =
  let doc =
    "Self-check: replay the scheme run with fast-forward on, with it off, \
     and through the per-instruction reference loop, and fail unless all \
     three produce bit-identical statistics."
  in
  Arg.(value & flag & info [ "check-fastforward" ] ~doc)

let run_cmd req no_fastforward ff_stats check_ff =
  if no_fastforward then Wayplace.Sim.Simulator.set_fastforward_default false;
  exit_code
  @@
    let* spec = find_spec req.P.benchmark in
    let* config = P.config_of_sim req in
    let prep = Wayplace.Sim.Runner.prepare spec in
    let comparison = Wayplace.Sim.Runner.compare_to_baseline prep config in
    Format.printf "benchmark: %s@." spec.Wayplace.Workloads.Spec.name;
    Format.printf "%a@.@." Wayplace.Sim.Config.pp config;
    Format.printf "--- scheme run ---@.%a@.@." Wayplace.Sim.Stats.pp
      comparison.Wayplace.Sim.Runner.scheme;
    Format.printf "--- baseline run ---@.%a@.@." Wayplace.Sim.Stats.pp
      comparison.Wayplace.Sim.Runner.baseline;
    Format.printf
      "normalised i-cache energy: %.3f@.normalised ED product: %.3f@.normalised cycles: %.4f@."
      comparison.Wayplace.Sim.Runner.norm_icache_energy
      comparison.Wayplace.Sim.Runner.norm_ed
      comparison.Wayplace.Sim.Runner.norm_cycles;
    (if ff_stats then begin
       let report = Wayplace.Sim.Steady_state.create_report () in
       let cache = Wayplace.Sim.Snapshot_cache.create () in
       ignore
         (Wayplace.Sim.Runner.run_scheme ~fastforward:(not no_fastforward)
            ~ff_report:report ~snapshot_cache:cache prep config);
       Format.printf
         "--- fast-forward ---@.regions %d, recorded iterations %d, \
          converged %d, skipped %d iterations (%d instrs)@."
         report.Wayplace.Sim.Steady_state.regions
         report.Wayplace.Sim.Steady_state.recorded_iterations
         report.Wayplace.Sim.Steady_state.converged
         report.Wayplace.Sim.Steady_state.skipped_iterations
         report.Wayplace.Sim.Steady_state.skipped_instrs;
       Format.printf
         "bail-outs: gate-rejected %d, vetoed %d, cost-gated %d, \
          budget-exhausted %d@.snapshot cache: %d hit%s, %d insert%s@."
         report.Wayplace.Sim.Steady_state.gate_rejected
         report.Wayplace.Sim.Steady_state.vetoed
         report.Wayplace.Sim.Steady_state.cost_gated
         report.Wayplace.Sim.Steady_state.budget_exhausted
         report.Wayplace.Sim.Steady_state.cache_hits
         (if report.Wayplace.Sim.Steady_state.cache_hits = 1 then "" else "s")
         report.Wayplace.Sim.Steady_state.cache_inserts
         (if report.Wayplace.Sim.Steady_state.cache_inserts = 1 then ""
          else "s")
     end);
    if not check_ff then Ok 0
    else begin
      let ff_on =
        Wayplace.Sim.Runner.run_scheme ~fastforward:true prep config
      in
      let ff_off =
        Wayplace.Sim.Runner.run_scheme ~fastforward:false prep config
      in
      let reference =
        Wayplace.Sim.Simulator.run_compiled ~reference_only:true ~config
          ~trace:prep.Wayplace.Sim.Runner.trace_large
          (Wayplace.Sim.Runner.compiled_for prep config)
      in
      let* () =
        same_stats "fast-forward diverges from plain fast path" ff_on ff_off
      in
      let* () = same_stats "fast path diverges from reference" ff_on reference in
      Format.printf
        "fast-forward self-check passed: on/off/reference bit-identical@.";
      Ok 0
    end

(* --- sweep: a benchmark x configuration grid on the domain pool --- *)

module Sweep = Wayplace.Sim.Sweep
module Sim_stats = Wayplace.Sim.Stats
module Report = Wayplace.Sim.Report

let quiet_arg =
  let doc =
    "Suppress progress lines on stderr.  Progress is also suppressed \
     automatically when stderr is not a terminal (e.g. under CI or when \
     piped), so logs stay clean without the flag."
  in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

(* Progress chatter is interactive feedback: off when asked, off when
   nobody is watching (stderr redirected to a file or pipe). *)
let progress_enabled ~quiet = (not quiet) && Unix.isatty Unix.stderr

let sweep_benchmarks_arg =
  let doc = "Comma-separated benchmark names, or $(b,all) for the whole suite." in
  Arg.(value & opt string "all" & info [ "b"; "benchmarks" ] ~docv:"NAMES" ~doc)

let sweep_schemes_arg =
  let doc =
    "Comma-separated schemes (baseline, wayplace, waymemo, waypred, filter)."
  in
  Arg.(
    value
    & opt (list scheme_conv) [ scheme_named "wayplace"; scheme_named "waymemo" ]
    & info [ "s"; "schemes" ] ~docv:"SCHEMES" ~doc)

let sweep_areas_arg =
  let doc = "Comma-separated way-placement area sizes in KB (one job per area)." in
  Arg.(value & opt int_list [ 16 ] & info [ "a"; "areas" ] ~docv:"KBS" ~doc)

let sweep_sizes_arg =
  let doc = "Comma-separated I-cache sizes in KB." in
  Arg.(value & opt int_list [ 32 ] & info [ "sizes" ] ~docv:"KBS" ~doc)

let sweep_ways_arg =
  let doc = "Comma-separated I-cache associativities." in
  Arg.(value & opt int_list [ 32 ] & info [ "ways-list" ] ~docv:"NS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the sweep (default: all cores; 1 = sequential)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let csv_arg = file_arg "csv" "Also write the sweep results to this CSV file."

let json_arg = file_arg "json" "Also write the sweep results to this JSON file."

(* A row's printable coordinates: benchmark, geometry, scheme. *)
let sweep_coords { Sweep.benchmark; config } =
  ( benchmark,
    Wayplace.Cache.Geometry.to_string config.Config.icache,
    Config.scheme_name config.Config.scheme )

let sweep_json rows =
  Report.Jobj
    [
      ( "rows",
        Report.Jlist
          (List.map
             (fun (job, (c : Wayplace.Sim.Runner.comparison)) ->
               let benchmark, icache, scheme = sweep_coords job in
               Report.Jobj
                 [
                   ("benchmark", Report.Jstring benchmark);
                   ("icache", Report.Jstring icache);
                   ("scheme", Report.Jstring scheme);
                   ("energy", Report.Jfloat c.norm_icache_energy);
                   ("ed", Report.Jfloat c.norm_ed);
                   ("cycles", Report.Jfloat c.norm_cycles);
                 ])
             rows) );
    ]

let sweep_csv rows =
  List.map
    (fun (job, (c : Wayplace.Sim.Runner.comparison)) ->
      let benchmark, icache, scheme = sweep_coords job in
      [ benchmark; icache; scheme ]
      @ List.map (Printf.sprintf "%.4f")
          [ c.norm_icache_energy; c.norm_ed; c.norm_cycles ])
    rows

(* The sweep is the daemon's grid description run locally: way-placement
   expands to one scheme per area, the cells come in the canonical grid
   order (benchmark, scheme, size, ways), and each cell's config is
   resolved exactly as a [Grid] request's. *)
let sweep_cmd benchmarks schemes areas sizes ways line jobs csv_out json_out
    quiet no_fastforward =
  if no_fastforward then Wayplace.Sim.Simulator.set_fastforward_default false;
  exit_code
  @@
  let* benchmarks = Mibench.select benchmarks in
  let schemes =
    List.concat_map
      (function
        | Config.Way_placement _ as s -> List.map (fun kb -> with_area kb s) areas
        | s -> [ s ])
      schemes
  in
  let grid =
    P.grid_request ~sizes_kb:sizes ~ways ~line_bytes:line ~benchmarks ~schemes ()
  in
  let* scheme_jobs =
    map_result
      (fun (benchmark, scheme, size_kb, ways) ->
        P.config_of_geometry ~scheme ~size_kb ~ways ~line_bytes:line
        |> Result.map (fun config -> { Sweep.benchmark; config }))
      (P.grid_cells grid)
  in
  let verbose = progress_enabled ~quiet in
  let progress = if verbose then Some Sweep.print_progress else None in
  let engine = Sweep.create ?workers:jobs ?progress () in
  let batch = Sweep.with_baselines scheme_jobs in
  if verbose then
    Printf.eprintf "[sweep] %d unique jobs on %d worker%s\n%!"
      (List.length batch) (Sweep.workers engine)
      (if Sweep.workers engine = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  ignore (Sweep.run_batch engine batch);
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "%-12s %-16s %-20s %9s %8s %9s\n" "benchmark" "icache"
    "scheme" "energy" "ED" "cycles";
  let rows =
    List.map
      (fun job ->
        let baseline =
          Sweep.stats engine
            { job with config = Config.with_scheme job.Sweep.config Config.Baseline }
        in
        (job, Wayplace.Sim.Runner.normalise ~baseline (Sweep.stats engine job)))
      scheme_jobs
  in
  List.iter
    (fun (job, (c : Wayplace.Sim.Runner.comparison)) ->
      let benchmark, icache, scheme = sweep_coords job in
      Printf.printf "%-12s %-16s %-20s %8.1f%% %8.3f %9.4f\n" benchmark icache
        scheme (100.0 *. c.norm_icache_energy) c.norm_ed c.norm_cycles)
    rows;
  Printf.printf "[sweep] %d rows in %.1fs\n%!" (List.length rows) elapsed;
  write_all
    [
      ( "CSV",
        csv_out,
        fun path ->
          plain
            (Report.write_csv ~path
               ~header:[ "benchmark"; "icache"; "scheme"; "energy"; "ed"; "cycles" ]
               ~rows:(sweep_csv rows)) );
      ("JSON", json_out, fun path -> plain (Report.write_json ~path (sweep_json rows)));
    ]

(* --- fuzz: differential testing on the domain pool --- *)

let seed_arg =
  let doc = "First fuzz seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let count_arg =
  let doc = "Number of consecutive seeds to run." in
  Arg.(value & opt int 100 & info [ "count" ] ~docv:"K" ~doc)

let fuzz_cmd seed count jobs quiet =
  exit_code
  @@
  if count <= 0 then Error "--count must be positive"
  else begin
    let progress =
      if progress_enabled ~quiet then
        Some
          (fun seed ~seconds ~completed ~total ->
            Printf.eprintf "[fuzz %3d/%d] seed %-10d %6.2fs\n%!" completed
              total seed seconds)
      else None
    in
    let t0 = Unix.gettimeofday () in
    let reports =
      Wayplace.Check.Differ.fuzz ?workers:jobs ?progress ~seed ~count ()
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    match reports with
    | [] ->
        Printf.printf "[fuzz] %d seeds (%d..%d) clean in %.1fs\n%!" count seed
          (seed + count - 1) elapsed;
        Ok 0
    | failures ->
        List.iter
          (fun r -> Format.printf "%a@." Wayplace.Check.Differ.pp_report r)
          failures;
        Printf.printf "[fuzz] %d/%d seeds FAILED in %.1fs\n%!"
          (List.length failures) count elapsed;
        Ok 1
  end

(* --- timeline: one sampled run, windowed by the sampler --- *)

module Sampler = Wayplace.Obs.Sampler

let window_arg =
  let doc = "Sampler window length in cycles." in
  Arg.(value & opt int Sampler.default_window_cycles
       & info [ "window" ] ~docv:"CYCLES" ~doc)

let timeline_csv_arg =
  file_arg "csv"
    "Write the windowed timeline to this CSV file."

let chrome_arg =
  file_arg "chrome"
    "Write a Chrome trace-event JSON file (loadable in chrome://tracing or \
     Perfetto) to this file."

let resize_arg =
  let doc =
    "Runtime resize schedule for way-placement: comma-separated $(i,IDX:KB) \
     pairs (ascending trace block index, new area size in KB).  The caches \
     are flushed at each resize."
  in
  Arg.(
    value
    & opt (list (trimmed (pair ~sep:':' int int))) []
    & info [ "resize" ] ~docv:"IDX:KB,..." ~doc)

let marker_to_string = function
  | Sampler.Resize { cycle; area_bytes } ->
      Printf.sprintf "resize@%d=%dB" cycle area_bytes
  | Sampler.Flush { cycle } -> Printf.sprintf "flush@%d" cycle
  | Sampler.Switch { cycle; next } -> Printf.sprintf "switch@%d=p%d" cycle next

let print_timeline windows =
  Printf.printf "%-6s %10s %10s %8s %6s %8s %8s %12s %s\n" "window" "start"
    "end" "retired" "ipc" "fetches" "misses" "total_pj" "markers";
  List.iter
    (fun (w : Sampler.window) ->
      Printf.printf "%-6d %10d %10d %8d %6.3f %8d %8d %12.1f %s\n"
        w.Sampler.index w.Sampler.start_cycle w.Sampler.end_cycle
        w.Sampler.retired (Sampler.ipc w) (Sampler.fetches w)
        (Sampler.get w Sampler.Counter.Icache_misses)
        (Array.fold_left ( +. ) 0.0 w.Sampler.energy_pj)
        (String.concat " " (List.map marker_to_string w.Sampler.markers)))
    windows

let timeline_cmd req window csv_out chrome_out resizes =
  exit_code
  @@
  let* spec = find_spec req.P.benchmark in
  let* config = P.config_of_sim req in
  let schedule = List.map (fun (idx, kb) -> (idx, kb * 1024)) resizes in
  let* () = if window > 0 then Ok () else Error "--window must be positive" in
  let prep = Wayplace.Sim.Runner.prepare spec in
  let* stats, windows =
    match
      Wayplace.Sim.Runner.run_timeline ~schedule ~window_cycles:window prep
        config
    with
    | result -> Ok result
    | exception Invalid_argument msg -> Error msg
  in
  Format.printf "benchmark: %s@." spec.Wayplace.Workloads.Spec.name;
  Format.printf "%a@." Config.pp config;
  Printf.printf "%d windows of %d cycles: %d cycles, %d retired, %.1f pJ\n"
    (List.length windows) window stats.Sim_stats.cycles
    stats.Sim_stats.retired_instrs
    (Sim_stats.total_energy_pj stats);
  if csv_out = None && chrome_out = None then print_timeline windows;
  write_all
    [
      ( "CSV",
        csv_out,
        fun path ->
          noted
            (Printf.sprintf " (%d windows)" (List.length windows))
            (Wayplace.Sim.Timeline.write_csv ~path windows) );
      ( "Chrome trace",
        chrome_out,
        fun path ->
          noted " (load in chrome://tracing or Perfetto)"
            (Wayplace.Sim.Timeline.write_chrome ~path windows) );
    ]

(* --- lint: static verifier + abstract I-cache analysis --- *)

module Lint = Wayplace.Lint

let lint_static_arg =
  let doc =
    "Also run the abstract must/may I-cache analysis per geometry and \
     cross-check it against a baseline LRU simulation (static coverage vs. \
     measured hit rate, soundness violations)."
  in
  Arg.(value & flag & info [ "static" ] ~doc)

let strict_arg =
  let doc = "Exit 2 when warnings are present (errors always exit 3)." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let lint_json_arg =
  file_arg "json"
    "Write the findings and static summaries to this JSON file."

let lint_csv_arg =
  file_arg "csv"
    "Write the findings to this CSV file (RFC 4180)."

(* One benchmark's lint results: geometry-independent well-formedness
   findings on both layouts, the placement contract per geometry on the
   placed layout, and (with --static) the abstract-analysis summary and
   soundness cross-check per geometry on the placed layout. *)
type lint_static_row = {
  ls_geometry : string;
  ls_summary : Lint.Abstract_icache.summary;
  ls_counts : Lint.Soundness.counts;
  ls_violations : string list;
  ls_loops : int;
  ls_loops_fit : int;
}

let lint_benchmark ~geometries ~area_kb ~static name =
  let spec = Wayplace.Workloads.Mibench.find name in
  let prep = Wayplace.Sim.Runner.prepare spec in
  let program = prep.Wayplace.Sim.Runner.program in
  let graph = program.Wayplace.Workloads.Codegen.graph in
  let original = prep.Wayplace.Sim.Runner.original_layout in
  let placed = prep.Wayplace.Sim.Runner.placed_layout in
  let findings =
    List.map (fun f -> ("original", "-", f)) (Lint.Wf_lint.check graph original)
    @ List.map (fun f -> ("placed", "-", f)) (Lint.Wf_lint.check graph placed)
    @ List.concat_map
        (fun geometry ->
          let params =
            {
              Lint.Contract.geometry;
              page_bytes = 1024;
              area_bytes = area_kb * 1024;
              code_base = Wayplace.Sim.Simulator.code_base;
            }
          in
          List.map
            (fun f ->
              ("placed", Wayplace.Cache.Geometry.to_string geometry, f))
            (Lint.Contract.check graph placed params))
        geometries
  in
  let statics =
    if not static then []
    else
      List.map
        (fun geometry ->
          let r =
            Lint.Soundness.check ~geometry ~program ~layout:placed
              ~trace:prep.Wayplace.Sim.Runner.trace_large ()
          in
          let loops = Lint.Abstract_icache.loop_pressures r.Lint.Soundness.analysis in
          {
            ls_geometry = Wayplace.Cache.Geometry.to_string geometry;
            ls_summary = Lint.Abstract_icache.summary r.Lint.Soundness.analysis;
            ls_counts = r.Lint.Soundness.counts;
            ls_violations = r.Lint.Soundness.violations;
            ls_loops = List.length loops;
            ls_loops_fit =
              List.length
                (List.filter
                   (fun l -> l.Lint.Abstract_icache.fits)
                   loops);
          })
        geometries
  in
  (findings, statics)

let lint_json results =
  Report.Jobj
    [
      ( "benchmarks",
        Report.Jlist
          (List.map
             (fun (name, findings, statics) ->
               Report.Jobj
                 [
                   ("benchmark", Report.Jstring name);
                   ( "findings",
                     Report.Jlist
                       (List.map
                          (fun (layout, geometry, (f : Lint.Finding.t)) ->
                            Report.Jobj
                              [
                                ("layout", Report.Jstring layout);
                                ("geometry", Report.Jstring geometry);
                                ( "severity",
                                  Report.Jstring
                                    (Lint.Finding.severity_name
                                       f.Lint.Finding.severity) );
                                ("code", Report.Jstring f.Lint.Finding.code);
                                ( "block",
                                  match f.Lint.Finding.block with
                                  | Some b -> Report.Jint b
                                  | None -> Report.Jnull );
                                ( "addr",
                                  match f.Lint.Finding.addr with
                                  | Some a -> Report.Jint a
                                  | None -> Report.Jnull );
                                ("message", Report.Jstring f.Lint.Finding.message);
                              ])
                          findings) );
                   ( "static",
                     Report.Jlist
                       (List.map
                          (fun r ->
                            let s = r.ls_summary in
                            let c = r.ls_counts in
                            Report.Jobj
                              [
                                ("geometry", Report.Jstring r.ls_geometry);
                                ("sites", Report.Jint s.Lint.Abstract_icache.sites);
                                ( "must_hit",
                                  Report.Jint s.Lint.Abstract_icache.must_hit );
                                ( "must_miss",
                                  Report.Jint s.Lint.Abstract_icache.must_miss );
                                ( "unknown",
                                  Report.Jint s.Lint.Abstract_icache.unknown );
                                ( "accesses",
                                  Report.Jint c.Lint.Soundness.accesses );
                                ("hits", Report.Jint c.Lint.Soundness.hits);
                                ("misses", Report.Jint c.Lint.Soundness.misses);
                                ( "coverage",
                                  Report.Jfloat (Lint.Soundness.coverage c) );
                                ("loops", Report.Jint r.ls_loops);
                                ("loops_fit", Report.Jint r.ls_loops_fit);
                                ( "violations",
                                  Report.Jlist
                                    (List.map
                                       (fun v -> Report.Jstring v)
                                       r.ls_violations) );
                              ])
                          statics) );
                 ])
             results) );
    ]

let lint_cmd benchmarks sizes ways line area static json_out csv_out strict =
  exit_code
  @@
    let* benchmarks = Mibench.select benchmarks in
    let* geometries =
      map_result
        (fun (size_kb, ways) ->
          P.config_of_geometry ~scheme:Config.Baseline ~size_kb ~ways
            ~line_bytes:line
          |> Result.map (fun (c : Config.t) -> c.icache))
        (List.concat_map (fun s -> List.map (fun w -> (s, w)) ways) sizes)
    in
    let* results =
      map_result
        (fun name ->
          match lint_benchmark ~geometries ~area_kb:area ~static name with
          | findings, statics -> Ok (name, findings, statics)
          | exception Invalid_argument msg ->
              Error (Printf.sprintf "%s: %s" name msg))
        benchmarks
    in
    let all_findings =
      List.concat_map (fun (_, fs, _) -> List.map (fun (_, _, f) -> f) fs)
        results
    in
    let unsound =
      List.exists
        (fun (_, _, statics) -> List.exists (fun r -> r.ls_violations <> []) statics)
        results
    in
    List.iter
      (fun (name, findings, statics) ->
        let fs = List.map (fun (_, _, f) -> f) findings in
        Printf.printf "%s: %d error(s), %d warning(s), %d finding(s)\n" name
          (List.length (Lint.Finding.errors fs))
          (List.length (Lint.Finding.warnings fs))
          (List.length fs);
        List.iter
          (fun (layout, geometry, f) ->
            Format.printf "  [%s%s] %a@." layout
              (if geometry = "-" then "" else " @ " ^ geometry)
              Lint.Finding.pp f)
          findings;
        List.iter
          (fun r ->
            let s = r.ls_summary in
            let c = r.ls_counts in
            Printf.printf
              "  static @ %s: %d sites: %d must-hit, %d must-miss, %d \
               unknown; %d/%d loops fit\n"
              r.ls_geometry s.Lint.Abstract_icache.sites
              s.Lint.Abstract_icache.must_hit s.Lint.Abstract_icache.must_miss
              s.Lint.Abstract_icache.unknown r.ls_loops_fit r.ls_loops;
            Printf.printf
              "  dynamic @ %s: %d accesses, hit rate %.2f%%, static coverage \
               %.2f%%, soundness %s\n"
              r.ls_geometry c.Lint.Soundness.accesses
              (if c.Lint.Soundness.accesses = 0 then 0.0
               else
                 100.0
                 *. float_of_int c.Lint.Soundness.hits
                 /. float_of_int c.Lint.Soundness.accesses)
              (100.0 *. Lint.Soundness.coverage c)
              (if r.ls_violations = [] then "OK"
               else Printf.sprintf "%d VIOLATION(S)" (List.length r.ls_violations));
            List.iter (fun v -> Printf.printf "    ! %s\n" v) r.ls_violations)
          statics)
      results;
    (* Findings decide the exit code even when a report file cannot be
       written: a failed write must not mask severity 2/3 behind a
       generic 1 (CI keys on the code); it only raises a clean run's
       code to 1. *)
    let csv_rows =
      List.concat_map
        (fun (name, findings, _) ->
          List.map
            (fun (layout, geometry, (f : Lint.Finding.t)) ->
              [
                name;
                layout;
                geometry;
                Lint.Finding.severity_name f.Lint.Finding.severity;
                f.Lint.Finding.code;
                (match f.Lint.Finding.block with
                | Some b -> string_of_int b
                | None -> "");
                (match f.Lint.Finding.addr with
                | Some a -> Printf.sprintf "0x%x" a
                | None -> "");
                f.Lint.Finding.message;
              ])
            findings)
        results
    in
    let write_failed =
      write_outputs
        [
          ( "CSV",
            csv_out,
            fun path ->
              plain
                (Report.write_csv ~path
                   ~header:
                     [
                       "benchmark"; "layout"; "geometry"; "severity"; "code";
                       "block"; "addr"; "message";
                     ]
                   ~rows:csv_rows) );
          ( "JSON",
            json_out,
            fun path -> plain (Report.write_json ~path (lint_json results)) );
        ]
    in
    let code =
      Lint.Finding.cli_exit_code ~strict ~write_failed all_findings
    in
    let code = if unsound then 3 else code in
    if code = 0 then
      Printf.printf "lint: clean (%d benchmark(s), %d geometr%s)\n"
        (List.length benchmarks)
        (List.length geometries)
        (if List.length geometries = 1 then "y" else "ies");
    Ok code

(* --- advise: the static placement advisor --- *)

module Advise = Wayplace.Advise

let advise_page_arg =
  let doc = "Way-placement page size in bytes (power of two)." in
  Arg.(value & opt int 1024 & info [ "page" ] ~docv:"BYTES" ~doc)

(* The analysis the daemon's [Advise] request describes. *)
let advise_request_term =
  Term.(
    const (fun benchmark size_kb ways line_bytes area_kb page_bytes ->
        P.advise_request ~size_kb ~ways ~line_bytes ~area_kb ~page_bytes
          ~benchmark ())
    $ benchmark_arg $ size_arg $ ways_arg $ line_arg $ area_arg
    $ advise_page_arg)

let advise_min_run_arg =
  let doc =
    "Hysteresis: schedule runs shorter than this many trace blocks are \
     merged into their neighbour taking the larger area."
  in
  Arg.(value & opt int 32 & info [ "min-run" ] ~docv:"N" ~doc)

let advise_json_arg =
  file_arg "json"
    "Write the full advisor report to this JSON file."

let advise_csv_arg =
  file_arg "csv"
    "Write the per-region table to this CSV file (RFC 4180)."

let advise_schedule_arg =
  file_arg "schedule"
    "Write the oracle resize schedule to this JSON file: an array of \
     $(i,{at_block, area_bytes}) objects (trace block index, new area size \
     in bytes), the form Advisor.schedule_of_json reads back for \
     Simulator.run_with_resizes.  $(b,timeline --resize) does not read \
     this file; it takes $(i,IDX:KB) pairs."

let advise_apply_arg =
  let doc =
    "Re-lay the binary out with the conflict-graph improved order and \
     report the measured energy/ED delta against the placed layout."
  in
  Arg.(value & flag & info [ "apply" ] ~doc)

let advise_measured_arg =
  let doc =
    "Sweep power-of-two way allocations and report the measured minimal \
     ways (smallest allocation matching the full-area miss count) next \
     to the static bound."
  in
  Arg.(value & flag & info [ "measured" ] ~doc)

let advise_cmd (req : P.advise_request) min_run json_out csv_out schedule_out
    apply measured strict =
  exit_code
  @@
    let benchmark = req.P.ad_benchmark and ways = req.P.ad_ways in
    let page = req.P.ad_page_bytes and area_kb = req.P.ad_area_kb in
    let* spec = find_spec benchmark in
    let* advised = P.config_of_advise req in
    let geometry = advised.Config.icache in
    let prep = Wayplace.Sim.Runner.prepare spec in
    let program = prep.Wayplace.Sim.Runner.program in
    let trace = prep.Wayplace.Sim.Runner.trace_large in
    let layout = prep.Wayplace.Sim.Runner.placed_layout in
    let* report =
      match P.analyze_advise ~min_run prep req advised with
      | r -> Ok r
      | exception Invalid_argument msg -> Error msg
    in
    Format.printf "%a@." Advise.Advisor.pp report;
    let wp_config area_bytes =
      let c = Config.with_scheme advised (Config.Way_placement { area_bytes }) in
      { c with Config.page_bytes = page }
    in
    if measured then begin
      let full_area =
        Advise.Oracle.area_for ~geometry ~page_bytes:page ~ways
      in
      let run_area area_bytes =
        Wayplace.Sim.Simulator.run ~config:(wp_config area_bytes) ~program
          ~layout ~trace
      in
      let full = run_area full_area in
      let module Stats = Wayplace.Sim.Stats in
      Format.printf "--- measured minimal ways (full area: %d misses) ---@."
        full.Stats.icache_misses;
      let rec candidates k = if k >= ways then [ ways ] else k :: candidates (2 * k) in
      let rows =
        List.map
          (fun k ->
            let area = Advise.Oracle.area_for ~geometry ~page_bytes:page ~ways:k in
            let s = run_area area in
            (k, area, s))
          (candidates 1)
      in
      List.iter
        (fun (k, area, (s : Wayplace.Sim.Stats.t)) ->
          Format.printf
            "  ways %2d (area %5d B): %d misses, I-cache %.1f pJ@." k area
            s.Wayplace.Sim.Stats.icache_misses
            (Wayplace.Sim.Stats.icache_energy_pj s))
        rows;
      let measured_min =
        match
          List.find_opt
            (fun (_, _, (s : Wayplace.Sim.Stats.t)) ->
              s.Wayplace.Sim.Stats.icache_misses
              <= full.Wayplace.Sim.Stats.icache_misses)
            rows
        with
        | Some (k, _, _) -> k
        | None -> ways
      in
      Format.printf "measured minimal ways %d, static bound %d (%s)@."
        measured_min report.Advise.Advisor.static_min_ways
        (if report.Advise.Advisor.static_min_ways >= measured_min then
           "static bound covers miss-parity"
         else
           "miss-parity needs more ways: cross-region transition misses, \
            which the steady-state bound does not claim to cover")
    end;
    if apply then begin
      match report.Advise.Advisor.improvement with
      | None ->
          Format.printf
            "apply: the placed order is already conflict-minimal under the \
             greedy search; nothing to re-lay out@."
      | Some imp ->
          let improved =
            Wayplace.Layout.Binary_layout.of_order
              program.Wayplace.Workloads.Codegen.graph
              ~base:Wayplace.Sim.Simulator.code_base imp.Advise.Advisor.order
          in
          let config = wp_config (area_kb * 1024) in
          let before =
            Wayplace.Sim.Simulator.run ~config ~program ~layout ~trace
          in
          let after =
            Wayplace.Sim.Simulator.run ~config ~program ~layout:improved ~trace
          in
          let module Stats = Wayplace.Sim.Stats in
          let e_before = Stats.icache_energy_pj before in
          let e_after = Stats.icache_energy_pj after in
          let ed =
            (Wayplace.Sim.Runner.normalise ~baseline:before after)
              .Wayplace.Sim.Runner.norm_ed
          in
          Format.printf
            "--- apply (conflict-graph order) ---@.misses %d -> %d, I-cache \
             %.1f -> %.1f pJ (measured delta %.1f, predicted upper bound \
             %.1f), ED ratio %.4f@."
            before.Stats.icache_misses after.Stats.icache_misses e_before
            e_after (e_before -. e_after)
            imp.Advise.Advisor.predicted_delta_pj ed
    end;
    let write_failed =
      write_outputs
        [
          ( "JSON",
            json_out,
            fun path ->
              plain (Report.write_json ~path (Advise.Advisor.to_json report)) );
          ( "CSV",
            csv_out,
            fun path ->
              plain
                (Report.write_csv ~path ~header:Advise.Advisor.csv_header
                   ~rows:(Advise.Advisor.csv_rows report)) );
          ( "schedule JSON",
            schedule_out,
            fun path ->
              plain
                (Report.write_json ~path
                   (Advise.Advisor.schedule_to_json
                      report.Advise.Advisor.schedule)) );
        ]
    in
    Ok (max (Advise.Advisor.exit_code ~strict report) (Bool.to_int write_failed))

(* --- mp: multiprogrammed runs --- *)

module Mp = Wayplace.Mp

let mp_mix_arg =
  let doc =
    "Process mix: comma-separated benchmark names, or $(b,random:SEED) for \
     a generated mix (deterministic in the seed)."
  in
  Arg.(value & opt string "crc,sha,bitcount" & info [ "mix" ] ~docv:"MIX" ~doc)

let mp_coverage_arg =
  let doc =
    "Placement coverage: $(b,all), $(b,half) (every second process), \
     $(b,none), or $(b,mix) (keep the mix's own flags)."
  in
  Arg.(value & opt string "all" & info [ "coverage" ] ~docv:"COV" ~doc)

let mp_quantum_arg =
  let doc = "Scheduler quantum in cycles; 0 = infinite (run to completion)." in
  Arg.(value & opt int 50_000 & info [ "q"; "quantum" ] ~docv:"CYCLES" ~doc)

let mp_no_kernel_arg =
  let doc = "Skip the interrupt-handler kernel at context switches." in
  Arg.(value & flag & info [ "no-kernel" ] ~doc)

(* The switch policies are the request's booleans: [true] = flush
   (BTB, drowsy state) or the priority scheduler. *)
let shared_or_flush = Arg.enum [ ("shared", false); ("flush", true) ]

let mp_btb_arg =
  let doc = "BTB policy at switches: $(b,shared) or $(b,flush)." in
  Arg.(value & opt shared_or_flush false & info [ "btb" ] ~docv:"POLICY" ~doc)

let mp_drowsy_arg =
  let doc =
    "Drowsy policy at switches: $(b,shared) (timestamps rebased onto the \
     incoming process's clock) or $(b,flush) (every line dropped drowsy)."
  in
  Arg.(
    value & opt shared_or_flush false
    & info [ "drowsy-policy" ] ~docv:"POLICY" ~doc)

let mp_sched_arg =
  let doc = "Scheduler: $(b,rr) (round-robin) or $(b,priority)." in
  Arg.(
    value
    & opt (enum [ ("round-robin", false); ("rr", false); ("priority", true) ]) false
    & info [ "sched" ] ~docv:"POLICY" ~doc)

let mp_verify_arg =
  let doc =
    "Self-check (exit 1 on any mismatch): run each process alone under an \
     infinite quantum without the kernel and assert bit-identity against \
     the single-process simulator, then replay the whole mix through the \
     per-instruction reference loop and assert the fast path matches it, \
     per process and in aggregate."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let mp_json_arg =
  file_arg "json"
    "Write the mp result (aggregate + per-process attribution) to this JSON file."

let mp_csv_arg =
  file_arg "csv"
    "Write the per-process attribution table to this CSV file."

(* The machine and mix the daemon's [Mp] request describes. *)
let mp_request_term =
  Term.(
    const
      (fun mix coverage quantum no_kernel btb_flush drowsy_flush priority
           scheme area size_kb ways line_bytes ->
        P.mp_request ~coverage ~quantum ~kernel:(not no_kernel) ~btb_flush
          ~drowsy_flush ~priority ~size_kb ~ways ~line_bytes ~mix
          ~scheme:(with_area area scheme) ())
    $ mp_mix_arg $ mp_coverage_arg $ mp_quantum_arg $ mp_no_kernel_arg
    $ mp_btb_arg $ mp_drowsy_arg $ mp_sched_arg $ scheme_arg $ area_arg
    $ size_arg $ ways_arg $ line_arg)

let mp_verify_run ~config ~options mix (fast : Mp.Machine.result) =
  let* _ =
    map_result
      (fun (p : Mp.Mix.proc) ->
        let prep = Wayplace.Sim.Runner.prepare p.Mp.Mix.spec in
        let cell = Wayplace.Sim.Runner.run_scheme prep config in
        let solo =
          Mp.Machine.run ~config ~options:Mp.Machine.oracle_options
            [ { p with Mp.Mix.placed = true } ]
        in
        same_stats
          (Printf.sprintf
             "identity oracle failed for %s: mp diverges from Simulator.run"
             p.Mp.Mix.pname)
          solo.Mp.Machine.aggregate cell)
      mix
  in
  let refr = Mp.Machine.run ~reference_only:true ~config ~options mix in
  let* () =
    same_stats "mp fast path diverges from the reference loop"
      fast.Mp.Machine.aggregate refr.Mp.Machine.aggregate
  in
  if
    List.for_all2
      (fun (a : Mp.Machine.process_result) (b : Mp.Machine.process_result) ->
        Sim_stats.equal a.Mp.Machine.pr_stats b.Mp.Machine.pr_stats)
      fast.Mp.Machine.processes refr.Mp.Machine.processes
  then Ok ()
  else Error "mp fast path diverges from the reference loop on a per-process account"

(* The attribution table: one row per process, then the system and the
   aggregate. *)
let mp_rows (r : Mp.Machine.result) =
  List.map
    (fun (p : Mp.Machine.process_result) ->
      (p.pr_name, p.pr_placed, p.pr_dispatches, p.pr_stats))
    r.Mp.Machine.processes
  @ [
      ("system", false, r.Mp.Machine.kernel_runs, r.Mp.Machine.system);
      ("aggregate", false, 0, r.Mp.Machine.aggregate);
    ]

let mp_result_json mix options (r : Mp.Machine.result) =
  let stats_fields (s : Sim_stats.t) =
    [
      ("cycles", Report.Jint s.Sim_stats.cycles);
      ("retired", Report.Jint s.Sim_stats.retired_instrs);
      ("fetches", Report.Jint s.Sim_stats.fetches);
      ("icache_energy_pj", Report.Jfloat (Sim_stats.icache_energy_pj s));
      ("total_energy_pj", Report.Jfloat (Sim_stats.total_energy_pj s));
    ]
  in
  Report.Jobj
    [
      ("processes", Report.Jint (List.length mix));
      ("quantum_cycles", Report.Jint options.Mp.Machine.quantum_cycles);
      ("switches", Report.Jint r.Mp.Machine.switches);
      ("kernel_runs", Report.Jint r.Mp.Machine.kernel_runs);
      ("timer_fires", Report.Jint r.Mp.Machine.timer_fires);
      ( "switches_per_million",
        Report.Jfloat (Mp.Machine.switches_per_million r) );
      ("aggregate", Report.Jobj (stats_fields r.Mp.Machine.aggregate));
      ("system", Report.Jobj (stats_fields r.Mp.Machine.system));
      ( "per_process",
        Report.Jlist
          (List.map
             (fun (p : Mp.Machine.process_result) ->
               Report.Jobj
                 ([
                    ("name", Report.Jstring p.pr_name);
                    ("placed", Report.Jbool p.pr_placed);
                    ("dispatches", Report.Jint p.pr_dispatches);
                  ]
                 @ stats_fields p.pr_stats))
             r.Mp.Machine.processes) );
    ]

let mp_result_csv r =
  String.concat ""
    ("process,placed,dispatches,retired,cycles,icache_energy_pj,total_energy_pj\n"
    :: List.map
         (fun (name, placed, dispatches, (s : Sim_stats.t)) ->
           Printf.sprintf "%s,%b,%d,%d,%d,%.6f,%.6f\n" name placed dispatches
             s.Sim_stats.retired_instrs s.Sim_stats.cycles
             (Sim_stats.icache_energy_pj s)
             (Sim_stats.total_energy_pj s))
         (mp_rows r))

let mp_cmd req window json_out csv_out chrome_out verify =
  exit_code
  @@
    let* config = P.config_of_mp req in
    let* mix = P.resolve_mix req in
    let options = P.options_of_mp req in
    let* () =
      if chrome_out = None || window > 0 then Ok ()
      else Error "--window must be positive"
    in
    let* r =
      match Mp.Machine.run ~config ~options mix with
      | r -> Ok r
      | exception Invalid_argument msg -> Error msg
    in
    let* () =
      if Mp.Machine.conserves r then Ok ()
      else Error "per-process + system counters do not sum to the aggregate"
    in
    let* () = if verify then mp_verify_run ~config ~options mix r else Ok () in
    Format.printf "mix: %a@." Mp.Mix.pp mix;
    Format.printf "%a@." Wayplace.Sim.Config.pp config;
    Printf.printf
      "quantum %s, kernel %s | %d switches (%.1f / M instrs), %d kernel runs, \
       %d timer fires\n"
      (if options.Mp.Machine.quantum_cycles <= 0 then "infinite"
       else string_of_int options.Mp.Machine.quantum_cycles ^ " cycles")
      (if options.Mp.Machine.kernel then "on" else "off")
      r.Mp.Machine.switches
      (Mp.Machine.switches_per_million r)
      r.Mp.Machine.kernel_runs r.Mp.Machine.timer_fires;
    Printf.printf "%-12s %-6s %10s %10s %12s %14s %14s\n" "process" "placed"
      "dispatch" "retired" "cycles" "icache_pj" "total_pj";
    List.iter
      (fun (name, placed, dispatches, (s : Sim_stats.t)) ->
        Printf.printf "%-12s %-6b %10d %10d %12d %14.1f %14.1f\n" name placed
          dispatches s.Sim_stats.retired_instrs s.Sim_stats.cycles
          (Sim_stats.icache_energy_pj s)
          (Sim_stats.total_energy_pj s))
      (mp_rows r);
    if verify then
      Printf.printf
        "verify: identity oracle, fast=reference and conservation all OK\n";
    let chrome path =
      let sampler = Sampler.create ~window_cycles:window () in
      ignore (Mp.Machine.run ~probe:(Sampler.probe sampler) ~config ~options mix);
      let windows = Sampler.finish sampler in
      noted
        (Printf.sprintf " (%d windows, context switches as instant events)"
           (List.length windows))
        (Wayplace.Sim.Timeline.write_chrome ~path windows)
    in
    write_all
      [
        ( "JSON",
          json_out,
          fun path -> plain (Report.write_json ~path (mp_result_json mix options r)) );
        ("CSV", csv_out, save_text ~note:"" (mp_result_csv r));
        ("Chrome trace", chrome_out, chrome);
      ]

(* --- serve / loadtest: the placement service --- *)

module Serve = Wayplace.Serve

let socket_arg =
  let doc = "Listen on (serve) or connect to (loadtest) this Unix socket." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on (serve) or connect to (loadtest) this TCP port." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "TCP host to bind / connect (with --port)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let endpoint_of ~socket ~port ~host =
  match (socket, port) with
  | Some _, Some _ -> Error "use --socket or --port, not both"
  | Some path, None -> Ok (Serve.Protocol.Unix_socket path)
  | None, Some port -> Ok (Serve.Protocol.Tcp (host, port))
  | None, None -> Ok (Serve.Protocol.Unix_socket "wayplace.sock")

let store_arg =
  let doc =
    "Persist computed results in this directory (content-addressed; entries \
     survive restarts and are recomputed if corrupt)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let serve_cmd socket port host store jobs quiet =
  exit_code
  @@
    let* endpoint = endpoint_of ~socket ~port ~host in
    let* daemon = Serve.Daemon.create ?workers:jobs ?store_dir:store ~endpoint () in
    let stop _ = Serve.Daemon.stop daemon in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    if not quiet then
      Printf.eprintf "[serve] listening on %s%s\n%!"
        (Serve.Protocol.endpoint_to_string (Serve.Daemon.endpoint daemon))
        (match store with
        | Some d -> Printf.sprintf ", store %s" d
        | None -> ", memory-only store");
    Serve.Daemon.run daemon;
    let s = Serve.Daemon.server_stats daemon in
    if not quiet then
      Printf.eprintf
        "[serve] stopped after %.1fs: %d requests, %d computations, %d memory \
         hits, %d disk hits, %d coalesced, %d errors\n%!"
        s.Serve.Protocol.uptime_s s.Serve.Protocol.requests
        s.Serve.Protocol.computations s.Serve.Protocol.hits_memory
        s.Serve.Protocol.hits_disk s.Serve.Protocol.coalesced
        s.Serve.Protocol.errors;
    Ok 0

let loadtest_total_arg =
  let doc = "Total number of simulation requests to fire." in
  Arg.(value & opt int 1000 & info [ "n"; "requests" ] ~docv:"N" ~doc)

let loadtest_conns_arg =
  let doc = "Number of client connections." in
  Arg.(value & opt int 8 & info [ "c"; "connections" ] ~docv:"N" ~doc)

let loadtest_depth_arg =
  let doc = "Pipelined requests kept in flight per connection." in
  Arg.(value & opt int 16 & info [ "depth" ] ~docv:"N" ~doc)

let loadtest_verify_arg =
  let doc =
    "Set the verify flag on every request (computations are replayed \
     through the reference loop server-side)."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let expect_hit_arg =
  let doc =
    "Fail (exit 1) unless the measured store hit ratio is at least this \
     value — the CI warm-pass assertion."
  in
  Arg.(value & opt (some float) None & info [ "expect-hit-ratio" ] ~docv:"R" ~doc)

let shutdown_after_arg =
  let doc = "Send a graceful shutdown request to the daemon afterwards." in
  Arg.(value & flag & info [ "shutdown-after" ] ~doc)

let loadtest_mix ~benchmarks ~schemes ~area ~verify ~grid ~mp_mixes =
  let* benchmarks = Mibench.select benchmarks in
  let schemes = List.map (with_area area) schemes in
  let sims =
    (* --grid ships the whole cross product as one batched request:
       the daemon expands it server-side, streams per-cell replies and
       content-addresses each cell exactly like a standalone sim *)
    if grid then
      [
        Serve.Protocol.Grid
          (Serve.Protocol.grid_request ~benchmarks ~schemes ());
      ]
    else
      List.concat_map
        (fun benchmark ->
          List.map
            (fun scheme ->
              Serve.Protocol.Sim
                (Serve.Protocol.sim_request ~verify ~benchmark ~scheme ()))
            schemes)
        benchmarks
  in
  (* each --mp MIX becomes one multiprogrammed request per scheme — a
     heavier request class in the same round-robin *)
  let mps =
    List.concat_map
      (fun mix ->
        List.map
          (fun scheme ->
            Serve.Protocol.Mp (Serve.Protocol.mp_request ~verify ~mix ~scheme ()))
          schemes)
      mp_mixes
  in
  Ok (Array.of_list (sims @ mps))

let loadtest_json_arg = file_arg "json" "Write the load-test report to this JSON file."

let loadtest_benchmarks_arg =
  let doc =
    "Comma-separated benchmark names for the request mix, or $(b,all)."
  in
  Arg.(value & opt string "crc,sha" & info [ "b"; "benchmarks" ] ~docv:"NAMES" ~doc)

let loadtest_schemes_arg =
  let doc = "Comma-separated schemes for the request mix." in
  Arg.(
    value
    & opt (list scheme_conv)
        (List.map scheme_named [ "baseline"; "wayplace"; "waymemo" ])
    & info [ "s"; "schemes" ] ~docv:"SCHEMES" ~doc)

let loadtest_mp_arg =
  let doc =
    "Add a multiprogrammed request for this process mix (comma-separated \
     benchmark names or $(b,random:SEED)) to the round-robin, one per \
     scheme.  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "mp" ] ~docv:"MIX" ~doc)

let loadtest_grid_arg =
  let doc =
    "Ship the benchmark x scheme cross product as grid-batch requests (one \
     request per grid; the daemon streams one reply per cell plus a \
     summary) instead of individual sim requests.  Each cell is tallied as \
     its own response, so the hit ratio still measures per-cell reuse."
  in
  Arg.(value & flag & info [ "grid" ] ~doc)

let loadtest_cmd socket port host total connections depth benchmarks schemes
    area verify grid mp_mixes json_out expect_hit shutdown_after quiet =
  exit_code
  @@
    let* endpoint = endpoint_of ~socket ~port ~host in
    let* mix =
      loadtest_mix ~benchmarks ~schemes ~area ~verify ~grid ~mp_mixes
    in
    let spec = { Serve.Loadtest.endpoint; connections; depth; total; mix } in
    let* r = Serve.Loadtest.run spec in
    if not quiet then Format.printf "%a@." Serve.Loadtest.pp r;
    (* a failed report write must not skip the shutdown or the gate *)
    let write_failed =
      write_outputs ~quiet
        [
          ( "JSON",
            json_out,
            fun path -> plain (Report.write_json ~path (Serve.Loadtest.to_json r)) );
        ]
    in
    let* () =
      if not shutdown_after then Ok ()
      else
        let* client = Serve.Client.connect endpoint in
        let r = Serve.Client.shutdown client in
        Serve.Client.close client;
        r
    in
    match expect_hit with
    | Some want when r.Serve.Loadtest.hit_ratio < want ->
        Error
          (Printf.sprintf "hit ratio %.3f below expected %.3f"
             r.Serve.Loadtest.hit_ratio want)
    | _ -> Ok (Bool.to_int write_failed)

let profile_arg =
  file_arg "profile"
    "Load the training profile from this file instead of rerunning."

let output_arg =
  let doc = "Write the artifact to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let input_arg =
  let doc = "Training input: small or large." in
  let inputs = Wayplace.Workloads.Tracer.[ ("small", Small); ("large", Large) ] in
  Arg.(value & opt (enum inputs) Wayplace.Workloads.Tracer.Small
       & info [ "input" ] ~docv:"INPUT" ~doc)

let profile_cmd benchmark input output =
  exit_code
  @@
    let* spec = find_spec benchmark in
    let program = Wayplace.Workloads.Codegen.generate spec in
    let profile = Wayplace.Workloads.Tracer.profile program input in
    let serialised = Wayplace.Serial.profile_to_string profile in
    if output = None then print_string serialised;
    let note =
      Printf.sprintf " (%d blocks profiled)"
        (Wayplace.Cfg.Profile.num_blocks profile)
    in
    write_all [ ("profile", output, save_text ~note serialised) ]

let load_profile path ~num_blocks =
  let* contents = Wayplace.Serial.load ~path in
  let* profile = Wayplace.Serial.profile_of_string contents in
  if Wayplace.Cfg.Profile.num_blocks profile <> num_blocks then
    Error
      (Printf.sprintf "profile has %d blocks, the program has %d"
         (Wayplace.Cfg.Profile.num_blocks profile)
         num_blocks)
  else Ok profile

let layout_report program profile order_output =
      let compiled = Wayplace.compile program.Wayplace.Workloads.Codegen.graph profile in
      let graph = program.Wayplace.Workloads.Codegen.graph in
      let write_failed =
        write_outputs
          [
            ( "block order",
              order_output,
              save_text ~note:" (block order)"
                (Wayplace.Serial.order_to_string
                   (Wayplace.Layout.Binary_layout.order compiled.Wayplace.layout)) );
          ]
      in
      Format.printf "%a@." Wayplace.Cfg.Icfg.pp_summary graph;
      Format.printf "%a@." Wayplace.Layout.Binary_layout.pp
        compiled.Wayplace.layout;
      Format.printf "chains: %d (longest %d blocks)@."
        (List.length compiled.Wayplace.chains)
        (List.fold_left
           (fun acc c -> max acc (Wayplace.Layout.Chain.length c))
           0 compiled.Wayplace.chains);
      let page_bytes = 1024 in
      List.iter
        (fun kb ->
          let area = Wayplace.Area.of_kilobytes ~page_bytes kb in
          Format.printf "  %a covers %.1f%% of profiled instructions@."
            Wayplace.Area.pp area
            (100.0
            *. Wayplace.Area.coverage area ~graph ~profile
                 ~layout:compiled.Wayplace.layout))
        [ 1; 2; 4; 8; 16 ];
      (* Loop structure of the three hottest functions. *)
      let hottest = Wayplace.Cfg.Profile.hottest_first profile in
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun id ->
          if Hashtbl.length seen < 3 then begin
            let f = (Wayplace.Cfg.Icfg.block graph id).Wayplace.Cfg.Basic_block.func in
            if not (Hashtbl.mem seen f) then begin
              Hashtbl.add seen f ();
              Format.printf "  hot %s@."
                (Wayplace.Cfg.Analysis.function_summary graph
                   (Wayplace.Cfg.Icfg.func graph f))
            end
          end)
        hottest;
      Bool.to_int write_failed

(* A benchmark's program and training profile: the small input's, or
   the one saved in [profile_path]. *)
let program_and_profile ?profile_path benchmark =
  let* spec = find_spec benchmark in
  let program = Wayplace.Workloads.Codegen.generate spec in
  let* profile =
    match profile_path with
    | None ->
        Ok
          (Wayplace.Workloads.Tracer.profile program
             Wayplace.Workloads.Tracer.Small)
    | Some path ->
        load_profile path
          ~num_blocks:
            (Wayplace.Cfg.Icfg.num_blocks
               program.Wayplace.Workloads.Codegen.graph)
  in
  Ok (program, profile)

let layout_cmd benchmark profile_path order_output =
  exit_code
  @@
    let* program, profile = program_and_profile ?profile_path benchmark in
    Ok (layout_report program profile order_output)

let limit_arg =
  let doc = "Maximum number of blocks to print." in
  Arg.(value & opt int 24 & info [ "limit" ] ~docv:"N" ~doc)

let disasm_cmd benchmark limit =
  exit_code
  @@
    let* program, profile = program_and_profile benchmark in
    let graph = program.Wayplace.Workloads.Codegen.graph in
    let compiled = Wayplace.compile graph profile in
    Wayplace.Layout.Listing.pp ~limit_blocks:limit Format.std_formatter
      ~graph ~layout:compiled.Wayplace.layout;
    Ok 0

let list_cmd () =
  List.iter print_endline Wayplace.Workloads.Mibench.names;
  0

let run_term =
  Term.(
    const run_cmd $ sim_request_term $ no_fastforward_arg $ ff_stats_arg
    $ check_ff_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Simulate one benchmark under one configuration")
      run_term;
    Cmd.v
      (Cmd.info "sweep"
         ~doc:
           "Sweep a benchmark x configuration grid on a parallel domain pool")
      Term.(
        const sweep_cmd $ sweep_benchmarks_arg $ sweep_schemes_arg
        $ sweep_areas_arg $ sweep_sizes_arg $ sweep_ways_arg $ line_arg
        $ jobs_arg $ csv_arg $ json_arg $ quiet_arg $ no_fastforward_arg);
    Cmd.v
      (Cmd.info "timeline"
         ~doc:
           "Simulate one benchmark with the windowed sampler attached and \
            export the timeline (stdout table, CSV, or Chrome trace-event \
            JSON)")
      Term.(
        const timeline_cmd $ sim_request_term $ window_arg $ timeline_csv_arg
        $ chrome_arg $ resize_arg);
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Differentially test the simulator on generated programs (oracle \
            cache, conservation laws, metamorphic scheme equalities)")
      Term.(const fuzz_cmd $ seed_arg $ count_arg $ jobs_arg $ quiet_arg);
    Cmd.v
      (Cmd.info "mp"
         ~doc:
           "Time-slice a mix of processes on one simulated core (shared \
            caches, I-TLB shootdowns, interrupt kernel) and report \
            per-process + aggregate energy attribution; $(b,--verify) \
            asserts the identity oracle and fast=reference bit-identity.")
      Term.(
        const mp_cmd $ mp_request_term $ window_arg $ mp_json_arg $ mp_csv_arg
        $ chrome_arg $ mp_verify_arg);
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Statically verify laid-out binaries: well-formedness (WF codes), \
            the way-placement contract per geometry (CT codes), and with \
            $(b,--static) the abstract must/may I-cache classification \
            cross-checked against the simulator.  Exits 3 on errors, 2 on \
            warnings under --strict, 0 otherwise.")
      Term.(
        const lint_cmd $ sweep_benchmarks_arg $ sweep_sizes_arg
        $ sweep_ways_arg $ line_arg $ area_arg $ lint_static_arg
        $ lint_json_arg $ lint_csv_arg $ strict_arg);
    Cmd.v
      (Cmd.info "advise"
         ~doc:
           "Run the static placement advisor: interprocedural loop-nest \
            regions with way-pressure bounds, the offline minimal-ways \
            resize schedule (written by $(b,--schedule) as JSON for \
            Simulator.run_with_resizes), a \
            line-conflict verification of the placed layout (PL codes), \
            and the static energy envelope.  $(b,--apply) measures the \
            conflict-graph improved order; $(b,--measured) cross-checks \
            the static minimal-ways bound against simulation.  Exits like \
            $(b,lint): 3 on errors, 2 on warnings under $(b,--strict).")
      Term.(
        const advise_cmd $ advise_request_term $ advise_min_run_arg
        $ advise_json_arg $ advise_csv_arg $ advise_schedule_arg
        $ advise_apply_arg $ advise_measured_arg $ strict_arg);
    Cmd.v
      (Cmd.info "layout" ~doc:"Show the way-placement layout of a benchmark")
      Term.(const layout_cmd $ benchmark_arg $ profile_arg $ output_arg);
    Cmd.v
      (Cmd.info "profile"
         ~doc:"Profile a benchmark and dump the result (stdout or -o FILE)")
      Term.(const profile_cmd $ benchmark_arg $ input_arg $ output_arg);
    Cmd.v
      (Cmd.info "disasm" ~doc:"Print the laid-out binary as a listing")
      Term.(const disasm_cmd $ benchmark_arg $ limit_arg);
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run the placement service: a daemon answering simulation \
            requests over a Unix or TCP socket from a content-addressed \
            result store, computing misses on a domain pool.  SIGINT/SIGTERM \
            or a client shutdown request stop it gracefully (accepted work \
            is drained).")
      Term.(
        const serve_cmd $ socket_arg $ port_arg $ host_arg $ store_arg
        $ jobs_arg $ quiet_arg);
    Cmd.v
      (Cmd.info "loadtest"
         ~doc:
           "Fire a concurrent mixed-request burst at a running placement \
            daemon and report latency percentiles, throughput and the store \
            hit ratio.")
      Term.(
        const loadtest_cmd $ socket_arg $ port_arg $ host_arg
        $ loadtest_total_arg $ loadtest_conns_arg $ loadtest_depth_arg
        $ loadtest_benchmarks_arg $ loadtest_schemes_arg $ area_arg
        $ loadtest_verify_arg $ loadtest_grid_arg $ loadtest_mp_arg
        $ loadtest_json_arg
        $ expect_hit_arg $ shutdown_after_arg $ quiet_arg);
    Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite")
      Term.(const list_cmd $ const ());
  ]

let () =
  let info =
    Cmd.info "wayplace_cli" ~version:Wayplace.version
      ~doc:"Compiler way-placement for instruction-cache energy (DATE 2008)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
