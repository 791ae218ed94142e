(* Regression tests for the sweep CSV emitter: RFC-4180 quoting and
   the clean-exit contract for unwritable paths (the CLI's [sweep
   --csv] used to interpolate fields raw and die on bad paths). *)

module Report = Wayplace.Sim.Report

let test_csv_field () =
  let check input expected =
    Alcotest.(check string) (Printf.sprintf "field %S" input) expected
      (Report.csv_field input)
  in
  check "plain" "plain";
  check "" "";
  check "32KB/32way/32B" "32KB/32way/32B";
  check "a,b" "\"a,b\"";
  check "say \"hi\"" "\"say \"\"hi\"\"\"";
  check "two\nlines" "\"two\nlines\"";
  check "cr\rhere" "\"cr\rhere\"";
  (* spaces alone need no quotes *)
  check "way placement" "way placement"

let test_csv_line () =
  Alcotest.(check string) "fields joined and terminated"
    "benchmark,\"a,b\",1.0\n"
    (Report.csv_line [ "benchmark"; "a,b"; "1.0" ]);
  Alcotest.(check string) "empty fields survive" ",,\n"
    (Report.csv_line [ ""; ""; "" ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_write_csv_roundtrip () =
  let path = Filename.temp_file "wayplace_report" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match
        Report.write_csv ~path
          ~header:[ "benchmark"; "scheme"; "ed" ]
          ~rows:[ [ "crc"; "way,placement"; "0.9369" ]; [ "sha"; "x\"y"; "1" ] ]
      with
      | Error msg -> Alcotest.failf "write failed: %s" msg
      | Ok () ->
          Alcotest.(check string) "exact bytes"
            "benchmark,scheme,ed\ncrc,\"way,placement\",0.9369\nsha,\"x\"\"y\",1\n"
            (read_file path))

(* A missing directory fails at open; a full disk (where the platform
   has /dev/full) only when the buffer is flushed at close. *)
let unwritable_paths =
  "/nonexistent-dir/deeper/out"
  :: (if Sys.file_exists "/dev/full" then [ "/dev/full" ] else [])

let test_write_csv_unwritable_path () =
  List.iter
    (fun path ->
      match Report.write_csv ~path ~header:[ "a" ] ~rows:[] with
      | Error msg ->
          Alcotest.(check bool) "diagnostic not empty" true
            (String.length msg > 0)
      | Ok () -> Alcotest.failf "writing to %s succeeded" path)
    unwritable_paths

(* The CLI exits 1 with the Error message instead of raising; locked in
   end-to-end by the differential fuzz smoke step in CI, and at the lib
   level here. *)

(* --- JSON: the [sweep --json] and Chrome-trace serialisation --- *)

let test_json_escape () =
  let check input expected =
    Alcotest.(check string) (Printf.sprintf "escape %S" input) expected
      (Report.json_escape input)
  in
  check "plain" "plain";
  check "" "";
  check "say \"hi\"" "say \\\"hi\\\"";
  check "back\\slash" "back\\\\slash";
  check "two\nlines" "two\\nlines";
  check "cr\rhere" "cr\\rhere";
  check "tab\there" "tab\\there";
  check "bell\007" "bell\\u0007";
  check "nul\000byte" "nul\\u0000byte";
  (* high bytes pass through untouched (the emitter is encoding-
     agnostic; strings here are ASCII anyway) *)
  check "caf\xc3\xa9" "caf\xc3\xa9"

let test_json_to_string () =
  let open Report in
  let check name j expected =
    Alcotest.(check string) name expected (json_to_string j)
  in
  check "null" Jnull "null";
  check "true" (Jbool true) "true";
  check "false" (Jbool false) "false";
  check "int" (Jint (-42)) "-42";
  check "integral float keeps a decimal point" (Jfloat 2.0) "2.0";
  check "fractional float" (Jfloat 0.25) "0.25";
  check "nan has no JSON encoding" (Jfloat Float.nan) "null";
  check "infinity has no JSON encoding" (Jfloat Float.infinity) "null";
  check "string is escaped and quoted" (Jstring "a\"b") "\"a\\\"b\"";
  check "empty list" (Jlist []) "[]";
  check "empty object" (Jobj []) "{}";
  check "list" (Jlist [ Jint 1; Jnull; Jbool false ]) "[1,null,false]";
  check "object keys are escaped"
    (Jobj [ ("a", Jint 1); ("b\"c", Jstring "x") ])
    "{\"a\":1,\"b\\\"c\":\"x\"}";
  check "nesting"
    (Jobj [ ("rows", Jlist [ Jobj [ ("ed", Jfloat 0.5) ] ]) ])
    "{\"rows\":[{\"ed\":0.5}]}"

let test_write_json_roundtrip () =
  let path = Filename.temp_file "wayplace_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j =
        Report.Jobj
          [
            ("benchmark", Report.Jstring "crc");
            ("energy", Report.Jfloat 0.4072);
          ]
      in
      match Report.write_json ~path j with
      | Error msg -> Alcotest.failf "write failed: %s" msg
      | Ok () ->
          Alcotest.(check string) "exact bytes"
            "{\"benchmark\":\"crc\",\"energy\":0.4072}\n" (read_file path))

let test_write_json_unwritable_path () =
  List.iter
    (fun path ->
      match Report.write_json ~path Report.Jnull with
      | Error msg ->
          Alcotest.(check bool) "diagnostic not empty" true
            (String.length msg > 0)
      | Ok () -> Alcotest.failf "writing to %s succeeded" path)
    unwritable_paths

(* --- perf-JSON reader: tolerant by contract --- *)

let with_perf_file content f =
  let path = Filename.temp_file "wayplace_perf" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc content);
      f path)

let well_formed =
  {|{
  "schema": "wayplace-bench-sim/1",
  "host": {"hostname": "h", "os": "Unix", "recommended_domains": 8, "timing_domains": 1},
  "repeat": 3,
  "results": [
    {"benchmark": "crc", "scheme": "baseline", "path": "fast", "instrs": 100, "wall_s": 0.5, "instrs_per_sec": 200.0},
    {"benchmark": "crc_loop", "scheme": "way-memoization", "path": "fastforward", "instrs": 100, "wall_s": 0.25, "instrs_per_sec": 4e8}
  ]
}|}

let test_parse_perf_rows_well_formed () =
  with_perf_file well_formed (fun path ->
      match Report.parse_perf_rows path with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok (rows, skipped) ->
          Alcotest.(check int) "no rows skipped" 0 skipped;
          Alcotest.(check int) "both rows found" 2 (List.length rows);
          let (b, s, p), ips = List.hd rows in
          Alcotest.(check string) "benchmark" "crc" b;
          Alcotest.(check string) "scheme" "baseline" s;
          Alcotest.(check string) "path" "fast" p;
          Alcotest.(check (float 0.0)) "throughput" 200.0 ips)

let corrupt =
  (* Every line mentions instrs_per_sec, so each is a claimed result
     row; only the first is usable.  The rest exercise: missing
     field, non-numeric rate, non-finite rate, value truncated away,
     and an unterminated string from a torn write. *)
  {|{"benchmark": "ok", "scheme": "baseline", "path": "fast", "instrs_per_sec": 1.5}
{"scheme": "baseline", "path": "fast", "instrs_per_sec": 2.0}
{"benchmark": "bad1", "scheme": "baseline", "path": "fast", "instrs_per_sec": "fast"}
{"benchmark": "bad2", "scheme": "baseline", "path": "fast", "instrs_per_sec": nan}
{"benchmark": "bad3", "scheme": "baseline", "path": "fast", "instrs_per_sec":
{"benchmark": "bad4", "scheme": "baseline", "instrs_per_sec": 3.0, "path": "trunc|}

let test_parse_perf_rows_corrupt () =
  with_perf_file corrupt (fun path ->
      match Report.parse_perf_rows path with
      | Error msg -> Alcotest.failf "tolerant reader refused file: %s" msg
      | Ok (rows, skipped) ->
          Alcotest.(check int) "good row survives" 1 (List.length rows);
          let (b, _, _), ips = List.hd rows in
          Alcotest.(check string) "good row benchmark" "ok" b;
          Alcotest.(check (float 0.0)) "good row rate" 1.5 ips;
          Alcotest.(check int) "malformed rows counted" 5 skipped)

let test_parse_perf_rows_empty_and_irrelevant () =
  with_perf_file "" (fun path ->
      match Report.parse_perf_rows path with
      | Error msg -> Alcotest.failf "empty file refused: %s" msg
      | Ok (rows, skipped) ->
          Alcotest.(check int) "no rows" 0 (List.length rows);
          Alcotest.(check int) "nothing skipped" 0 skipped);
  (* JSON with no result rows at all: structure only, zero skipped. *)
  with_perf_file "{\n  \"results\": []\n}\n" (fun path ->
      match Report.parse_perf_rows path with
      | Error msg -> Alcotest.failf "row-free file refused: %s" msg
      | Ok (rows, skipped) ->
          Alcotest.(check int) "no rows" 0 (List.length rows);
          Alcotest.(check int) "nothing skipped" 0 skipped)

let test_parse_perf_rows_unreadable () =
  match Report.parse_perf_rows "/nonexistent-dir/deeper/perf.json" with
  | Error msg ->
      Alcotest.(check bool) "diagnostic not empty" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "reading a missing file succeeded"

(* --- Report.parse: the strict reader, round-trip with the emitter --- *)

(* Float equality by bits: the round-trip property is exactness, not
   tolerance (and -0.0 must survive). *)
let rec json_equal a b =
  match (a, b) with
  | Report.Jnull, Report.Jnull -> true
  | Report.Jbool x, Report.Jbool y -> x = y
  | Report.Jint x, Report.Jint y -> x = y
  | Report.Jfloat x, Report.Jfloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Report.Jstring x, Report.Jstring y -> String.equal x y
  | Report.Jlist x, Report.Jlist y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Report.Jobj x, Report.Jobj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           x y
  | _ -> false

let check_parse name input expected =
  match Report.parse input with
  | Error msg -> Alcotest.failf "%s: parse failed: %s" name msg
  | Ok got ->
      if not (json_equal got expected) then
        Alcotest.failf "%s: parsed %s, expected %s" name
          (Report.json_to_string got)
          (Report.json_to_string expected)

let check_parse_fails name input =
  match Report.parse input with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error mentions the offset" name)
        true
        (String.length msg > 0
        && String.sub msg 0 (min 20 (String.length msg))
           = "JSON parse error at ")
  | Ok j ->
      Alcotest.failf "%s: accepted %S as %s" name input
        (Report.json_to_string j)

let test_parse_values () =
  let open Report in
  check_parse "whitespace everywhere" "  { \"a\" : [ 1 , 2.5 , null ] }  "
    (Jobj [ ("a", Jlist [ Jint 1; Jfloat 2.5; Jnull ]) ]);
  check_parse "scalars" "[null,true,false,0,-7,1.5,\"s\"]"
    (Jlist
       [ Jnull; Jbool true; Jbool false; Jint 0; Jint (-7); Jfloat 1.5;
         Jstring "s" ]);
  check_parse "exponent is a float" "1e3" (Jfloat 1000.0);
  check_parse "negative zero int" "-0" (Jint 0);
  check_parse "max_int survives" (string_of_int max_int) (Jint max_int);
  check_parse "min_int survives" (string_of_int min_int) (Jint min_int);
  (* an integer literal too big for 63 bits falls back to float rather
     than overflowing silently *)
  check_parse "oversized integer literal becomes float"
    "123456789012345678901234567890" (Jfloat 1.2345678901234568e29);
  check_parse "empty containers" "[[],{}]" (Jlist [ Jlist []; Jobj [] ])

let test_parse_string_escapes () =
  let open Report in
  check_parse "simple escapes" "\"a\\n\\t\\r\\b\\f\\\\\\/\\\"z\""
    (Jstring "a\n\t\r\b\012\\/\"z");
  check_parse "unicode escape" "\"\\u0041\\u007a\"" (Jstring "Az");
  check_parse "nul escape" "\"\\u0000\"" (Jstring "\000");
  (* two-byte and three-byte UTF-8 *)
  check_parse "u00e9 is UTF-8 encoded" "\"\\u00e9\"" (Jstring "\xc3\xa9");
  check_parse "u20ac is UTF-8 encoded" "\"\\u20ac\"" (Jstring "\xe2\x82\xac");
  (* a surrogate pair decodes to one 4-byte scalar *)
  check_parse "surrogate pair" "\"\\ud83d\\ude00\""
    (Jstring "\xf0\x9f\x98\x80");
  (* raw high bytes pass through, matching the emitter *)
  check_parse "raw high bytes" "\"caf\xc3\xa9\"" (Jstring "caf\xc3\xa9");
  check_parse_fails "lone high surrogate" "\"\\ud83d\"";
  check_parse_fails "lone low surrogate" "\"\\ude00\"";
  check_parse_fails "truncated unicode escape" "\"\\u00\"";
  check_parse_fails "unknown escape" "\"\\x41\"";
  check_parse_fails "raw control char" "\"a\nb\""

let test_parse_malformed () =
  check_parse_fails "empty input" "";
  check_parse_fails "blank input" "   ";
  check_parse_fails "truncated object" "{\"a\":1";
  check_parse_fails "truncated list" "[1,2";
  check_parse_fails "truncated string" "\"abc";
  check_parse_fails "bare keyword prefix" "tru";
  check_parse_fails "missing colon" "{\"a\" 1}";
  check_parse_fails "trailing comma in list" "[1,]";
  check_parse_fails "trailing comma in object" "{\"a\":1,}";
  check_parse_fails "unquoted key" "{a:1}";
  check_parse_fails "leading zero" "01";
  check_parse_fails "leading plus" "+1";
  check_parse_fails "bare dot" "1.";
  check_parse_fails "nan literal" "nan";
  check_parse_fails "trailing garbage" "{} x";
  check_parse_fails "two values" "1 2";
  (* duplicate keys are a defect, not a silent last-wins *)
  (match Report.parse "{\"a\":1,\"b\":2,\"a\":3}" with
  | Ok _ -> Alcotest.fail "duplicate key accepted"
  | Error msg ->
      Alcotest.(check bool) "duplicate key named in error" true
        (String.length msg > 0
        &&
        let re = "duplicate key" in
        let n = String.length msg and m = String.length re in
        let rec find i = i + m <= n && (String.sub msg i m = re || find (i + 1)) in
        find 0));
  (* absurd nesting is a clean error, not a stack overflow *)
  let deep = String.concat "" (List.init 600 (fun _ -> "[")) in
  check_parse_fails "absurd nesting" deep

let test_parse_accessors () =
  let open Report in
  match parse "{\"i\":3,\"f\":1.5,\"s\":\"x\",\"b\":true,\"l\":[1]}" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok j ->
      Alcotest.(check (option int)) "to_int" (Some 3)
        (Option.bind (member "i" j) to_int);
      Alcotest.(check (option (float 0.0))) "to_float" (Some 1.5)
        (Option.bind (member "f" j) to_float);
      Alcotest.(check (option (float 0.0))) "to_float widens ints" (Some 3.0)
        (Option.bind (member "i" j) to_float);
      Alcotest.(check (option string)) "to_string" (Some "x")
        (Option.bind (member "s" j) to_string);
      Alcotest.(check (option bool)) "to_bool" (Some true)
        (Option.bind (member "b" j) to_bool);
      Alcotest.(check bool) "to_list" true
        (match Option.bind (member "l" j) to_list with
        | Some [ Jint 1 ] -> true
        | _ -> false);
      Alcotest.(check (option int)) "missing member" None
        (Option.bind (member "zz" j) to_int);
      Alcotest.(check (option int)) "wrong type" None
        (Option.bind (member "s" j) to_int)

(* The generative form of the satellite requirement: parse (emit x) = x
   for every protocol-expressible value, including floats (the emitter
   picks the shortest exact decimal form) and strings over the full
   byte range. *)
let json_gen =
  let open QCheck.Gen in
  let finite_float =
    map
      (fun f -> if Float.is_finite f then f else 0.0)
      (oneof
         [
           float;
           map float_of_int int;
           oneofl
             [ 0.0; -0.0; 0.25; 0.1; 1e-300; 4e18; 1.7976931348623157e308;
               5e-324; 3.141592653589793 ];
         ])
  in
  let any_string = string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 12) in
  let scalar =
    oneof
      [
        return Report.Jnull;
        map (fun b -> Report.Jbool b) bool;
        map (fun i -> Report.Jint i) int;
        map (fun f -> Report.Jfloat f) finite_float;
        map (fun s -> Report.Jstring s) any_string;
      ]
  in
  let dedup_keys kvs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      kvs
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map (fun l -> Report.Jlist l)
                   (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Report.Jobj (dedup_keys kvs))
                   (list_size (0 -- 4) (pair any_string (self (n / 2)))) );
             ])

let roundtrip_prop =
  QCheck.Test.make ~count:1000 ~name:"parse (emit x) = x"
    (QCheck.make ~print:Report.json_to_string json_gen)
    (fun j ->
      match Report.parse (Report.json_to_string j) with
      | Ok j' -> json_equal j j'
      | Error msg ->
          QCheck.Test.fail_reportf "emitted %s unparseable: %s"
            (Report.json_to_string j) msg)

let () =
  Alcotest.run "report"
    [
      ( "csv",
        [
          Alcotest.test_case "field quoting" `Quick test_csv_field;
          Alcotest.test_case "line assembly" `Quick test_csv_line;
          Alcotest.test_case "write + read back" `Quick
            test_write_csv_roundtrip;
          Alcotest.test_case "unwritable path is a clean error" `Quick
            test_write_csv_unwritable_path;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escaping" `Quick test_json_escape;
          Alcotest.test_case "rendering" `Quick test_json_to_string;
          Alcotest.test_case "write + read back" `Quick
            test_write_json_roundtrip;
          Alcotest.test_case "unwritable path is a clean error" `Quick
            test_write_json_unwritable_path;
        ] );
      ( "parse",
        [
          Alcotest.test_case "values and whitespace" `Quick test_parse_values;
          Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
          Alcotest.test_case "malformed inputs are clean errors" `Quick
            test_parse_malformed;
          Alcotest.test_case "accessors" `Quick test_parse_accessors;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "perf rows",
        [
          Alcotest.test_case "well-formed file" `Quick
            test_parse_perf_rows_well_formed;
          Alcotest.test_case "corrupt rows are skipped, not fatal" `Quick
            test_parse_perf_rows_corrupt;
          Alcotest.test_case "empty and row-free files" `Quick
            test_parse_perf_rows_empty_and_irrelevant;
          Alcotest.test_case "unreadable path is a clean error" `Quick
            test_parse_perf_rows_unreadable;
        ] );
    ]
