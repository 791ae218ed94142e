(* Tests for the plain-text serialisation of profiles and orders. *)

module Serial = Wayplace.Serial
module Profile = Wayplace.Cfg.Profile
module Mibench = Wayplace.Workloads.Mibench
module Codegen = Wayplace.Workloads.Codegen
module Tracer = Wayplace.Workloads.Tracer

let test_profile_roundtrip () =
  let p = Profile.create ~num_blocks:10 in
  Profile.record_block_n p 0 5;
  Profile.record_block_n p 7 12345;
  match Serial.profile_of_string (Serial.profile_to_string p) with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      Alcotest.(check int) "num blocks" 10 (Profile.num_blocks q);
      for id = 0 to 9 do
        Alcotest.(check int)
          (Printf.sprintf "count of %d" id)
          (Profile.block_count p id) (Profile.block_count q id)
      done

let test_profile_roundtrip_real () =
  let program = Codegen.generate Mibench.tiny in
  let p = Tracer.profile program Tracer.Small in
  match Serial.profile_of_string (Serial.profile_to_string p) with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      let same = ref true in
      for id = 0 to Profile.num_blocks p - 1 do
        if Profile.block_count p id <> Profile.block_count q id then same := false
      done;
      Alcotest.(check bool) "identical counts" true !same

let expect_profile_error name s =
  Alcotest.(check bool) name true
    (match Serial.profile_of_string s with Error _ -> true | Ok _ -> false)

let test_profile_rejects () =
  expect_profile_error "empty" "";
  expect_profile_error "bad magic" "nonsense v9\nblocks 3\n";
  expect_profile_error "missing header" "wayplace-profile v1\nnope\n";
  expect_profile_error "out of range id" "wayplace-profile v1\nblocks 2\n5 1\n";
  expect_profile_error "zero count" "wayplace-profile v1\nblocks 2\n0 0\n";
  expect_profile_error "duplicate id" "wayplace-profile v1\nblocks 2\n0 1\n0 2\n";
  expect_profile_error "garbage entry" "wayplace-profile v1\nblocks 2\nfoo bar\n"

let test_order_roundtrip () =
  let order = [| 3; 1; 4; 0; 2 |] in
  match Serial.order_of_string (Serial.order_to_string order) with
  | Error msg -> Alcotest.fail msg
  | Ok back -> Alcotest.(check (list int)) "same order" (Array.to_list order)
                 (Array.to_list back)

let expect_order_error name s =
  Alcotest.(check bool) name true
    (match Serial.order_of_string s with Error _ -> true | Ok _ -> false)

let test_order_rejects () =
  expect_order_error "bad magic" "wrong v1\nblocks 1\n0\n";
  expect_order_error "wrong count" "wayplace-order v1\nblocks 3\n0\n1\n";
  expect_order_error "duplicate" "wayplace-order v1\nblocks 2\n0\n0\n";
  expect_order_error "out of range" "wayplace-order v1\nblocks 2\n0\n7\n";
  expect_order_error "garbage" "wayplace-order v1\nblocks 1\nabc\n"

let test_file_roundtrip () =
  let path = Filename.temp_file "wayplace" ".profile" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let p = Profile.create ~num_blocks:3 in
      Profile.record_block_n p 1 9;
      (match
         Wayplace.Sim.Report.write_file ~path (fun oc ->
             output_string oc (Serial.profile_to_string p))
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      match Serial.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok contents -> begin
          match Serial.profile_of_string contents with
          | Error msg -> Alcotest.fail msg
          | Ok q -> Alcotest.(check int) "count survives disk" 9 (Profile.block_count q 1)
        end)

let test_load_missing_file () =
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Serial.load ~path:"/nonexistent/wayplace.profile"))

(* The shipped order must be usable to rebuild the exact layout. *)
let test_order_rebuilds_layout () =
  let program = Codegen.generate Mibench.tiny in
  let graph = program.Codegen.graph in
  let profile = Tracer.profile program Tracer.Small in
  let compiled = Wayplace.compile graph profile in
  let order = Wayplace.Layout.Binary_layout.order compiled.Wayplace.layout in
  match Serial.order_of_string (Serial.order_to_string order) with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
      let rebuilt =
        Wayplace.Layout.Binary_layout.of_order graph
          ~base:(Wayplace.Layout.Binary_layout.base compiled.Wayplace.layout)
          loaded
      in
      let same = ref true in
      for id = 0 to Wayplace.Cfg.Icfg.num_blocks graph - 1 do
        if
          Wayplace.Layout.Binary_layout.block_start rebuilt id
          <> Wayplace.Layout.Binary_layout.block_start compiled.Wayplace.layout id
        then same := false
      done;
      Alcotest.(check bool) "identical addresses" true !same

let () =
  Alcotest.run "serial"
    [
      ( "profile",
        [
          Alcotest.test_case "roundtrip" `Quick test_profile_roundtrip;
          Alcotest.test_case "roundtrip (generated)" `Quick test_profile_roundtrip_real;
          Alcotest.test_case "rejects malformed" `Quick test_profile_rejects;
        ] );
      ( "order",
        [
          Alcotest.test_case "roundtrip" `Quick test_order_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_order_rejects;
          Alcotest.test_case "rebuilds the layout" `Quick test_order_rebuilds_layout;
        ] );
      ( "files",
        [
          Alcotest.test_case "disk roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
        ] );
    ]
