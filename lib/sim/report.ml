let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let csv_field s =
  if not (needs_quoting s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv_line fields = String.concat "," (List.map csv_field fields) ^ "\n"

(* [close_out] is inside the match: a full disk often shows only when
   the buffer is flushed there, and must be an [Error] like any other
   write failure. *)
let write_file ~path write =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc -> (
      match
        write oc;
        close_out oc
      with
      | () -> Ok ()
      | exception Sys_error msg ->
          close_out_noerr oc;
          Error msg)

let write_csv ~path ~header ~rows =
  write_file ~path (fun oc ->
      output_string oc (csv_line header);
      List.iter (fun row -> output_string oc (csv_line row)) rows)

(* --- JSON ---------------------------------------------------------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jint of int
  | Jfloat of float
  | Jstring of string
  | Jlist of json list
  | Jobj of (string * json) list

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest rendering that parses back to the same double: most values
   keep the compact "%.12g" the emitter always used; only values that
   genuinely need more digits grow them.  Round-trip exactness is what
   lets the serve protocol ship energy totals as plain JSON numbers and
   still compare results bit-for-bit on the other side. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if not (Float.is_finite f) then "null"
    (* NaN/inf have no JSON encoding *)
  else begin
    let exact fmt =
      let s = Printf.sprintf fmt f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match exact "%.12g" with
      | Some s -> s
      | None -> (
          match exact "%.15g" with
          | Some s -> s
          | None -> (
              match exact "%.16g" with
              | Some s -> s
              | None -> Printf.sprintf "%.17g" f))
    in
    (* %g prints integral values in [1e15, 1e17) as bare digits; keep a
       float marker so the reader doesn't narrow them to an int *)
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s then s
    else s ^ ".0"
  end

let rec buffer_json buf = function
  | Jnull -> Buffer.add_string buf "null"
  | Jbool b -> Buffer.add_string buf (if b then "true" else "false")
  | Jint i -> Buffer.add_string buf (string_of_int i)
  | Jfloat f -> Buffer.add_string buf (json_float f)
  | Jstring s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape s);
      Buffer.add_char buf '"'
  | Jlist items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          buffer_json buf item)
        items;
      Buffer.add_char buf ']'
  | Jobj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (json_escape key);
          Buffer.add_string buf "\":";
          buffer_json buf value)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 1024 in
  buffer_json buf j;
  Buffer.contents buf

let write_json ~path j =
  write_file ~path (fun oc ->
      output_string oc (json_to_string j);
      output_char oc '\n')

(* --- JSON parser ---------------------------------------------------- *)

(* A strict recursive-descent parser for the emitter above: the serve
   protocol's other half.  Every malformed input — truncated text,
   duplicate object keys, lone surrogates, trailing garbage, absurd
   nesting — is a clean [Error] carrying the byte offset, never an
   exception: the daemon feeds it whatever bytes a client sends. *)

exception Parse_fail of int * string

let max_nesting_depth = 512

let parse input =
  let n = String.length input in
  let fail pos msg = raise (Parse_fail (pos, msg)) in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail !pos (Printf.sprintf "expected %C, found %C" c d)
    | None -> fail !pos (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match input.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail !pos (Printf.sprintf "bad hex digit %C in \\u escape" c)
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' ->
          advance ();
          Buffer.contents buf
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail !pos "truncated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let start = !pos in
                  let cp = hex4 () in
                  if cp >= 0xd800 && cp <= 0xdbff then begin
                    (* high surrogate: a low surrogate must follow *)
                    if
                      !pos + 2 <= n
                      && input.[!pos] = '\\'
                      && input.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let lo = hex4 () in
                      if lo >= 0xdc00 && lo <= 0xdfff then
                        add_utf8 buf
                          (0x10000
                          + ((cp - 0xd800) lsl 10)
                          + (lo - 0xdc00))
                      else fail start "lone high surrogate"
                    end
                    else fail start "lone high surrogate"
                  end
                  else if cp >= 0xdc00 && cp <= 0xdfff then
                    fail start "lone low surrogate"
                  else add_utf8 buf cp
              | c -> fail (!pos - 1) (Printf.sprintf "bad escape \\%c" c));
              go ())
      | Some c when Char.code c < 0x20 ->
          fail !pos "unescaped control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some ('1' .. '9') ->
        while
          match peek () with Some ('0' .. '9') -> true | _ -> false
        do
          advance ()
        done
    | _ -> fail !pos "malformed number");
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      (match peek () with
      | Some ('0' .. '9') -> ()
      | _ -> fail !pos "malformed number: digit expected after '.'");
      while match peek () with Some ('0' .. '9') -> true | _ -> false do
        advance ()
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        (match peek () with
        | Some ('0' .. '9') -> ()
        | _ -> fail !pos "malformed number: digit expected in exponent");
        while match peek () with Some ('0' .. '9') -> true | _ -> false do
          advance ()
        done
    | _ -> ());
    let text = String.sub input start (!pos - start) in
    if !fractional then
      match float_of_string_opt text with
      | Some f -> Jfloat f
      | None -> fail start (Printf.sprintf "unparseable number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Jint i
      | None -> (
          (* an integer literal too wide for the native int: degrade to
             the nearest double rather than erroring — huge counters in
             foreign inputs stay readable *)
          match float_of_string_opt text with
          | Some f -> Jfloat f
          | None -> fail start (Printf.sprintf "unparseable number %S" text))
  in
  let rec parse_value depth =
    if depth > max_nesting_depth then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Jstring (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jlist []
        end
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems ()
            | Some ']' -> advance ()
            | Some c ->
                fail !pos (Printf.sprintf "expected ',' or ']', found %C" c)
            | None -> fail !pos "unterminated array"
          in
          elems ();
          Jlist (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jobj []
        end
        else begin
          let fields = ref [] in
          let seen = Hashtbl.create 8 in
          let rec members () =
            skip_ws ();
            let key_pos = !pos in
            let key =
              match peek () with
              | Some '"' -> parse_string ()
              | _ -> fail !pos "expected object key"
            in
            if Hashtbl.mem seen key then
              fail key_pos (Printf.sprintf "duplicate key %S" key);
            Hashtbl.add seen key ();
            skip_ws ();
            expect ':';
            fields := (key, parse_value (depth + 1)) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | Some c ->
                fail !pos (Printf.sprintf "expected ',' or '}', found %C" c)
            | None -> fail !pos "unterminated object"
          in
          members ();
          Jobj (List.rev !fields)
        end
    | Some c -> fail !pos (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then
      fail !pos (Printf.sprintf "trailing garbage after value: %C" input.[!pos]);
    v
  with
  | v -> Ok v
  | exception Parse_fail (pos, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" pos msg)

(* --- object accessors ------------------------------------------------ *)

let member key = function
  | Jobj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Jint i -> Some i | _ -> None

let to_float = function
  | Jfloat f -> Some f
  | Jint i -> Some (float_of_int i)
  | _ -> None

let to_string = function Jstring s -> Some s | _ -> None
let to_bool = function Jbool b -> Some b | _ -> None
let to_list = function Jlist l -> Some l | _ -> None

(* --- perf-row reader ----------------------------------------------- *)

(* A deliberately line-oriented reader for the BENCH_sim.json files the
   bench harness writes: one result object per line.  It must never
   take CI down over a stale artifact — an unreadable file is an
   [Error], and any malformed row (truncated line, missing field,
   unparseable number) is counted and dropped rather than raised on. *)

let find_sub ~pat s =
  let plen = String.length pat and slen = String.length s in
  let rec go i =
    if i + plen > slen then None
    else if String.sub s i plen = pat then Some (i + plen)
    else go (i + 1)
  in
  go 0

(* The value after ["key":], whitespace-tolerant: a quoted string
   (escapes respected) or a bare scalar ending at [,] / [}] / [\]]. *)
let json_field_of_line line key =
  match find_sub ~pat:(Printf.sprintf "\"%s\":" key) line with
  | None -> None
  | Some start ->
      let n = String.length line in
      let i = ref start in
      while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
      if !i >= n then None
      else if line.[!i] = '"' then begin
        let stop = ref (!i + 1) in
        while
          !stop < n && not (line.[!stop] = '"' && line.[!stop - 1] <> '\\')
        do
          incr stop
        done;
        if !stop >= n then None (* unterminated string: truncated line *)
        else Some (String.sub line (!i + 1) (!stop - !i - 1))
      end
      else begin
        let stop = ref !i in
        while
          !stop < n && not (List.mem line.[!stop] [ ','; '}'; ']'; ' ' ])
        do
          incr stop
        done;
        if !stop = !i then None else Some (String.sub line !i (!stop - !i))
      end

let parse_perf_rows path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rows = ref [] and skipped = ref 0 in
          (try
             while true do
               let line = input_line ic in
               (* Only lines claiming to be result rows count; anything
                  else (header, host block, braces) is structure. *)
               match find_sub ~pat:"\"instrs_per_sec\"" line with
               | None -> ()
               | Some _ -> (
                   let field = json_field_of_line line in
                   match
                     ( field "benchmark",
                       field "scheme",
                       field "path",
                       Option.bind (field "instrs_per_sec")
                         float_of_string_opt )
                   with
                   | Some b, Some s, Some p, Some ips when Float.is_finite ips
                     ->
                       rows := ((b, s, p), ips) :: !rows
                   | _ -> incr skipped)
             done
           with End_of_file -> ());
          Ok (List.rev !rows, !skipped))
