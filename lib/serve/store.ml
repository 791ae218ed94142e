module Config = Wp_sim.Config
module Runner = Wp_sim.Runner

(* Bumped whenever the payload type changes: entries written under an
   older magic fail the header check and are evicted, never misread. *)
let magic = "wpstore2\n"

type 'v t = {
  dir : string option;
  lock : Mutex.t;  (** guards [table] *)
  table : (string, 'v) Hashtbl.t;
  evictions : int Atomic.t;
  write_failures : int Atomic.t;
}

(* Temporary-file names must be unique per process, not per store: two
   stores over one directory in one process would otherwise write the
   same temporary file, and one of the two publishes would fail. *)
let tmp_counter = Atomic.make 0

let create ?dir () =
  let ready =
    match dir with
    | None -> Ok ()
    | Some d -> (
        let make () =
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          if not (Sys.is_directory d) then
            Error (Printf.sprintf "store path %S is not a directory" d)
          else begin
            (* probe writability up front so the daemon fails at startup,
               not on its first computed result *)
            let probe = Filename.concat d ".wp-probe" in
            let oc = open_out probe in
            close_out oc;
            Sys.remove probe;
            Ok ()
          end
        in
        match make () with
        | r -> r
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "store directory %S: %s" d (Unix.error_message e))
        | exception Sys_error msg -> Error msg)
  in
  match ready with
  | Error _ as e -> e
  | Ok () ->
      Ok
        {
          dir;
          lock = Mutex.create ();
          table = Hashtbl.create 256;
          evictions = Atomic.make 0;
          write_failures = Atomic.make 0;
        }

(* The program keeps Marshal's sharing: it is a large graph generated
   deterministically, sharing included, so its encoding is stable
   across processes.  Configs and mixes are small plain data and go
   through [No_sharing], which makes their digests functions of the
   value alone. *)
let code_digest (prep : Runner.prepared) config =
  Digest.string
    (Marshal.to_string
       ( prep.Runner.program,
         Wp_layout.Binary_layout.order (Runner.layout_for prep config) )
       [])

let address kind parts =
  kind ^ "-" ^ Digest.to_hex (Digest.string (String.concat "" parts))

let sim_address ~code config = address "sim" [ code; Config.digest config ]

let mp_address mix config options =
  address "mp"
    [
      Digest.string (Marshal.to_string (mix, options) [ Marshal.No_sharing ]);
      Config.digest config;
    ]

let advise_address ~code ~benchmark ~page_bytes config =
  address "advise"
    [ code; Config.digest config; Printf.sprintf "%d %s" page_bytes benchmark ]

let stats_digest stats = Digest.to_hex (Digest.string (Marshal.to_string stats []))

(* Only content addresses — a lowercase kind, a dash, an MD5 hex
   digest — are ever used as keys, so the key doubles as a safe file
   name; reject anything else defensively rather than let a crafted
   key escape the store directory. *)
let valid_key k =
  let n = String.length k - 33 in
  n > 0
  && k.[n] = '-'
  && String.for_all (function 'a' .. 'z' -> true | _ -> false) (String.sub k 0 n)
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       (String.sub k (n + 1) 32)

let entry_path dir k = Filename.concat dir k

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception End_of_file -> None)

(* Decode one disk entry; any defect — wrong magic, short header,
   digest mismatch, unmarshalable payload — is [None]. *)
let decode_entry contents =
  let mlen = String.length magic in
  let dlen = 16 in
  if String.length contents < mlen + dlen then None
  else if String.sub contents 0 mlen <> magic then None
  else begin
    let digest = String.sub contents mlen dlen in
    let payload = String.sub contents (mlen + dlen) (String.length contents - mlen - dlen) in
    if Digest.string payload <> digest then None
    else
      match Marshal.from_string payload 0 with
      | v -> Some v
      | exception _ -> None
  end

let load_disk t k =
  match t.dir with
  | None -> None
  | Some d when valid_key k -> (
      let path = entry_path d k in
      if not (Sys.file_exists path) then None
      else
        match Option.bind (read_file path) decode_entry with
        | Some v -> Some v
        | None ->
            (* corrupt, truncated or empty: evict and recompute *)
            (try Sys.remove path with Sys_error _ -> ());
            Atomic.incr t.evictions;
            None)
  | Some _ -> None

let store_disk t k v =
  match t.dir with
  | None -> ()
  | Some d when valid_key k -> (
      let path = entry_path d k in
      if not (Sys.file_exists path) then begin
        let payload = Marshal.to_string v [] in
        let tmp =
          Filename.concat d
            (Printf.sprintf ".tmp-%d-%d-%s"
               (Unix.getpid ())
               (Atomic.fetch_and_add tmp_counter 1)
               k)
        in
        match open_out_bin tmp with
        | exception Sys_error _ -> Atomic.incr t.write_failures
        | oc -> (
            let written =
              match
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    output_string oc magic;
                    output_string oc (Digest.string payload);
                    output_string oc payload)
              with
              | () -> true
              | exception Sys_error _ -> false
            in
            if not written then begin
              (try Sys.remove tmp with Sys_error _ -> ());
              Atomic.incr t.write_failures
            end
            else
              (* atomic publish: concurrent writers of the same key race
                 benignly — both renames install identical content *)
              match Sys.rename tmp path with
              | () -> ()
              | exception Sys_error _ ->
                  (try Sys.remove tmp with Sys_error _ -> ());
                  Atomic.incr t.write_failures)
      end)
  | Some _ -> Atomic.incr t.write_failures

let find t k =
  Mutex.lock t.lock;
  let hot = Hashtbl.find_opt t.table k in
  Mutex.unlock t.lock;
  match hot with
  | Some v -> Some (v, `Memory)
  | None -> (
      match load_disk t k with
      | None -> None
      | Some v ->
          Mutex.lock t.lock;
          (* another thread may have promoted it meanwhile; keep the
             first so every memory hit returns one shared value *)
          let v =
            match Hashtbl.find_opt t.table k with
            | Some existing -> existing
            | None ->
                Hashtbl.replace t.table k v;
                v
          in
          Mutex.unlock t.lock;
          Some (v, `Disk))

let put t k v =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.table k) then Hashtbl.replace t.table k v;
  Mutex.unlock t.lock;
  store_disk t k v

let memory_entries t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let disk_entries t =
  match t.dir with
  | None -> 0
  | Some d -> (
      match Sys.readdir d with
      | entries ->
          Array.fold_left
            (fun acc e -> if valid_key e then acc + 1 else acc)
            0 entries
      | exception Sys_error _ -> 0)

let evictions t = Atomic.get t.evictions
let write_failures t = Atomic.get t.write_failures
