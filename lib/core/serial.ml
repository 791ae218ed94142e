let profile_magic = "wayplace-profile v1"
let order_magic = "wayplace-order v1"

let profile_to_string profile =
  let buf = Buffer.create 256 in
  let n = Wp_cfg.Profile.num_blocks profile in
  Buffer.add_string buf profile_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "blocks %d\n" n);
  for id = 0 to n - 1 do
    let count = Wp_cfg.Profile.block_count profile id in
    if count > 0 then Buffer.add_string buf (Printf.sprintf "%d %d\n" id count)
  done;
  Buffer.contents buf

let lines_of_string s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let parse_header ~magic lines =
  match lines with
  | m :: header :: rest when m = magic -> begin
      match String.split_on_char ' ' header with
      | [ "blocks"; n ] -> begin
          match int_of_string_opt n with
          | Some n when n >= 0 -> Ok (n, rest)
          | Some _ | None -> Error "invalid block count"
        end
      | _ -> Error "missing 'blocks <n>' header"
    end
  | m :: _ when m <> magic -> Error (Printf.sprintf "bad magic %S" m)
  | _ -> Error "truncated header"

let profile_of_string s =
  let ( let* ) = Result.bind in
  let* n, rest = parse_header ~magic:profile_magic (lines_of_string s) in
  let profile = Wp_cfg.Profile.create ~num_blocks:n in
  let seen = Hashtbl.create 64 in
  let parse_line line =
    match String.split_on_char ' ' line with
    | [ id; count ] -> begin
        match (int_of_string_opt id, int_of_string_opt count) with
        | Some id, Some count when id >= 0 && id < n && count > 0 ->
            if Hashtbl.mem seen id then
              Error (Printf.sprintf "duplicate block %d" id)
            else begin
              Hashtbl.add seen id ();
              Wp_cfg.Profile.record_block_n profile id count;
              Ok ()
            end
        | _ -> Error (Printf.sprintf "invalid entry %S" line)
      end
    | _ -> Error (Printf.sprintf "invalid entry %S" line)
  in
  let rec go = function
    | [] -> Ok profile
    | line :: rest -> (
        match parse_line line with Ok () -> go rest | Error _ as e -> e)
  in
  go rest

let order_to_string order =
  let buf = Buffer.create 256 in
  Buffer.add_string buf order_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "blocks %d\n" (Array.length order));
  Array.iter (fun id -> Buffer.add_string buf (Printf.sprintf "%d\n" id)) order;
  Buffer.contents buf

let order_of_string s =
  let ( let* ) = Result.bind in
  let* n, rest = parse_header ~magic:order_magic (lines_of_string s) in
  if List.length rest <> n then
    Error (Printf.sprintf "expected %d ids, found %d" n (List.length rest))
  else begin
    let order = Array.make n 0 in
    let seen = Array.make n false in
    let rec go i = function
      | [] -> Ok order
      | line :: rest -> begin
          match int_of_string_opt line with
          | Some id when id >= 0 && id < n && not seen.(id) ->
              seen.(id) <- true;
              order.(i) <- id;
              go (i + 1) rest
          | Some id when id >= 0 && id < n ->
              Error (Printf.sprintf "duplicate block %d" id)
          | Some _ | None -> Error (Printf.sprintf "invalid id %S" line)
        end
    in
    go 0 rest
  end

let load ~path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  | exception Sys_error msg -> Error msg
