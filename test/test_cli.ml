(* The command-line front end, driven as a user drives it: exit codes
   for bad input, the write-failure policy (every requested file is
   attempted, a failed one makes the exit code 1), scheme aliases, and
   sweep rows against Runner.compare_to_baseline.  Every case runs the
   built binary on crc and takes well under a second. *)

module P = Wayplace.Serve.Protocol
module Config = Wayplace.Sim.Config
module Runner = Wayplace.Sim.Runner
module Report = Wayplace.Sim.Report

let cli = "../bin/wayplace_cli.exe"
let bad_path = "/nonexistent-dir/out"
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the CLI; returns (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "cli" ".out" in
  let err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:err)
  in
  let result = (code, read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

(* A fresh directory for one case's files, removed afterwards. *)
let with_scratch f =
  let dir = Filename.temp_dir "wayplace_cli" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let check_exit ~code ?stderr_prefix args =
  let got, _, err = run args in
  Alcotest.(check int) (String.concat " " args ^ ": exit code") code got;
  match stderr_prefix with
  | None -> ()
  | Some prefix ->
      if not (String.starts_with ~prefix err) then
        Alcotest.failf "stderr %S does not start with %S" err prefix

(* --- exit codes ------------------------------------------------------ *)

let test_unknown_benchmark () =
  check_exit ~code:1 ~stderr_prefix:"error: unknown benchmark" [ "run"; "-b"; "nope" ];
  check_exit ~code:1 ~stderr_prefix:"error: unknown benchmark"
    [ "sweep"; "-b"; "crc,nope"; "-q" ]

let test_unknown_scheme () =
  check_exit ~code:124 [ "run"; "-b"; "crc"; "-s"; "nope" ];
  check_exit ~code:124 [ "sweep"; "-b"; "crc"; "-s"; "wayplace,nope"; "-q" ]

let test_zero_area () =
  check_exit ~code:1 ~stderr_prefix:"error: way-placement area must be positive"
    [ "run"; "-b"; "crc"; "-s"; "wayplace"; "-a"; "0" ];
  check_exit ~code:1 ~stderr_prefix:"error: way-placement area must be positive"
    [ "timeline"; "-b"; "crc"; "-s"; "wayplace"; "-a"; "0" ]

let test_bad_geometry () =
  check_exit ~code:1 ~stderr_prefix:"error:" [ "run"; "-b"; "crc"; "--ways"; "3" ];
  check_exit ~code:1 ~stderr_prefix:"error:"
    [ "advise"; "-b"; "crc"; "--ways"; "3" ]

let test_malformed_flags () =
  check_exit ~code:124 [ "mp"; "--mix"; "crc"; "--btb"; "sometimes" ];
  check_exit ~code:124 [ "mp"; "--mix"; "crc"; "--sched"; "fifo" ];
  check_exit ~code:124 [ "run"; "-b"; "crc"; "-a"; "-4" ]

(* --- write failures --------------------------------------------------- *)

(* [args] names [bad_path] for one output and [good] for another: the
   good file must still be written, the bad one reported, exit 1. *)
let check_partial_write args ~good =
  let code, _, err = run args in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check bool) "good file written" true (Sys.file_exists good);
  let prefix = "error: writing " in
  if not (String.starts_with ~prefix err) then
    Alcotest.failf "stderr %S does not report the failed write" err

let test_sweep_write_failure () =
  with_scratch @@ fun dir ->
  let good = Filename.concat dir "ok.json" in
  check_partial_write ~good
    [ "sweep"; "-b"; "crc"; "-s"; "baseline"; "-q"; "--csv"; bad_path; "--json"; good ]

let test_timeline_write_failure () =
  with_scratch @@ fun dir ->
  let good = Filename.concat dir "ok.trace.json" in
  check_partial_write ~good
    [ "timeline"; "-b"; "crc"; "--csv"; bad_path; "--chrome"; good ]

let test_mp_write_failure () =
  with_scratch @@ fun dir ->
  let good = Filename.concat dir "ok.csv" in
  check_partial_write ~good
    [ "mp"; "--mix"; "crc"; "--json"; bad_path; "--csv"; good ]

(* A full disk fails only when the file is flushed: still an error
   line and exit 1, never an uncaught exception. *)
let test_full_disk () =
  if Sys.file_exists "/dev/full" then begin
    check_exit ~code:1 ~stderr_prefix:"error: writing CSV /dev/full"
      [ "mp"; "--mix"; "crc"; "--csv"; "/dev/full" ];
    check_exit ~code:1 ~stderr_prefix:"error: writing JSON /dev/full"
      [ "sweep"; "-b"; "crc"; "-s"; "baseline"; "-q"; "--json"; "/dev/full" ]
  end

(* A failed report write must not skip [--shutdown-after]: the daemon
   has to stop on its own. *)
let test_loadtest_write_failure () =
  with_scratch @@ fun dir ->
  let socket = Filename.concat dir "wp.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let daemon =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "-j"; "1"; "--quiet" |]
      null null null
  in
  Unix.close null;
  let stop_daemon () =
    Unix.kill daemon Sys.sigkill;
    ignore (Unix.waitpid [] daemon)
  in
  let rec await_socket n =
    if Sys.file_exists socket then ()
    else if n = 0 then begin
      stop_daemon ();
      Alcotest.fail "daemon did not create its socket"
    end
    else begin
      Unix.sleepf 0.02;
      await_socket (n - 1)
    end
  in
  await_socket 500;
  let code, _, err =
    run
      [
        "loadtest"; "--socket"; socket; "-n"; "2"; "-c"; "1"; "--depth"; "1";
        "-b"; "crc"; "-s"; "baseline"; "--quiet"; "--json"; bad_path;
        "--shutdown-after";
      ]
  in
  let rec await_exit n =
    match Unix.waitpid [ Unix.WNOHANG ] daemon with
    | 0, _ when n > 0 ->
        Unix.sleepf 0.02;
        await_exit (n - 1)
    | 0, _ ->
        stop_daemon ();
        Alcotest.fail "daemon still running: the shutdown was skipped"
    | _, status -> status
  in
  let status = await_exit 500 in
  Alcotest.(check int) "loadtest exit code" 1 code;
  if not (String.starts_with ~prefix:"error: writing JSON" err) then
    Alcotest.failf "stderr %S does not report the failed write" err;
  Alcotest.(check bool) "daemon exited cleanly" true (status = Unix.WEXITED 0)

(* --- aliases and rows --------------------------------------------------- *)

let test_scheme_aliases () =
  List.iter
    (fun (alias, name) ->
      let c1, out1, _ = run [ "run"; "-b"; "crc"; "-s"; alias ] in
      let c2, out2, _ = run [ "run"; "-b"; "crc"; "-s"; name ] in
      Alcotest.(check int) (alias ^ " exit code") 0 c1;
      Alcotest.(check int) (name ^ " exit code") 0 c2;
      Alcotest.(check string) (alias ^ " = " ^ name) out2 out1)
    [
      ("way-placement", "wayplace");
      ("way-memoization", "waymemo");
      ("way-prediction", "waypred");
      ("filter-cache", "filter");
    ]

(* Every row equals the single-run comparison of its cell, and the rows
   come in the canonical grid order. *)
let test_sweep_rows () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "grid.json" in
  let code, _, _ =
    run
      [
        "sweep"; "-b"; "crc"; "-s"; "baseline,wayplace,waymemo"; "-a"; "16,8";
        "--sizes"; "16,32"; "--ways-list"; "8,32"; "-j"; "1"; "-q"; "--json"; path;
      ]
  in
  Alcotest.(check int) "exit code" 0 code;
  let rows =
    match Result.map (Report.member "rows") (Report.parse (read_file path)) with
    | Ok (Some (Report.Jlist rows)) -> rows
    | _ -> Alcotest.fail "no rows in the sweep JSON"
  in
  let wp kb = Config.Way_placement { area_bytes = kb * 1024 } in
  let cells =
    P.grid_cells
      (P.grid_request ~sizes_kb:[ 16; 32 ] ~ways:[ 8; 32 ] ~benchmarks:[ "crc" ]
         ~schemes:[ Config.Baseline; wp 16; wp 8; Config.Way_memoization ]
         ())
  in
  Alcotest.(check int) "one row per cell" (List.length cells) (List.length rows);
  let prep = Runner.prepare (Wayplace.Workloads.Mibench.find "crc") in
  List.iter2
    (fun (benchmark, scheme, size_kb, ways) row ->
      let config =
        match P.config_of_geometry ~scheme ~size_kb ~ways ~line_bytes:32 with
        | Ok c -> c
        | Error msg -> Alcotest.fail msg
      in
      let c = Runner.compare_to_baseline prep config in
      let str k = Option.bind (Report.member k row) Report.to_string in
      let num k = Option.bind (Report.member k row) Report.to_float in
      let cell = Wayplace.Sim.Sweep.job_label { Wayplace.Sim.Sweep.benchmark; config } in
      Alcotest.(check (option string)) (cell ^ " benchmark") (Some benchmark)
        (str "benchmark");
      Alcotest.(check (option string)) (cell ^ " icache")
        (Some (Wayplace.Cache.Geometry.to_string config.Config.icache))
        (str "icache");
      Alcotest.(check (option string)) (cell ^ " scheme")
        (Some (Config.scheme_name config.Config.scheme))
        (str "scheme");
      let exact = Alcotest.(option (float 0.0)) in
      Alcotest.check exact (cell ^ " energy") (Some c.Runner.norm_icache_energy)
        (num "energy");
      Alcotest.check exact (cell ^ " ed") (Some c.Runner.norm_ed) (num "ed");
      Alcotest.check exact (cell ^ " cycles") (Some c.Runner.norm_cycles)
        (num "cycles"))
    cells rows

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          Alcotest.test_case "unknown benchmark: 1" `Quick test_unknown_benchmark;
          Alcotest.test_case "unknown scheme: 124" `Quick test_unknown_scheme;
          Alcotest.test_case "area 0 is rejected, not raised: 1" `Quick
            test_zero_area;
          Alcotest.test_case "bad geometry: 1" `Quick test_bad_geometry;
          Alcotest.test_case "malformed flag values: 124" `Quick
            test_malformed_flags;
        ] );
      ( "write failures",
        [
          Alcotest.test_case "sweep writes the JSON after a bad CSV" `Quick
            test_sweep_write_failure;
          Alcotest.test_case "timeline writes Chrome after a bad CSV" `Quick
            test_timeline_write_failure;
          Alcotest.test_case "mp writes the CSV after a bad JSON" `Quick
            test_mp_write_failure;
          Alcotest.test_case "loadtest still shuts the daemon down" `Quick
            test_loadtest_write_failure;
          Alcotest.test_case "a full disk is an error line, not a crash" `Quick
            test_full_disk;
        ] );
      ( "front end",
        [
          Alcotest.test_case "scheme aliases print the same run" `Quick
            test_scheme_aliases;
          Alcotest.test_case "sweep rows = compare_to_baseline, grid order"
            `Quick test_sweep_rows;
        ] );
    ]
