(* Spans for the traced run.  Recorded only around the benchmark's own
   calls into each layer, kept in memory, and written at exit as a
   Chrome trace plus a self-time-per-layer table.  When tracing is off
   [with_span] is a single branch. *)

type t = {
  id : int;
  name : string;
  tag : string;  (** cell or request id *)
  start : float;
  stop : float;
  parent : int;  (** 0 = root *)
  tid : int;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let fresh_id () = Atomic.fetch_and_add next_id 1
let current () = match Domain.DLS.get stack with p :: _ -> p | [] -> 0

let add ?(id = fresh_id ()) ?(parent = current ()) ?(tag = "") ~start ~stop name =
  if !enabled then begin
    let s = { id; name; tag; start; stop; parent; tid = (Domain.self () :> int) } in
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock
  end

(* Run [f] inside a span; [parent] defaults to the innermost open span
   of this domain, so nesting on one domain needs no bookkeeping and a
   pool job names its round explicitly. *)
let with_span ?parent ?tag name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = Option.value parent ~default:(current ()) in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack (id :: saved);
    let start = Util.now () in
    Fun.protect f ~finally:(fun () ->
        Domain.DLS.set stack saved;
        add ~id ~parent ?tag ~start ~stop:(Util.now ()) name)
  end

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per span name: (count, total seconds, self seconds), where self time
   is the span's duration minus the time its children cover. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start, s.stop)) spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self =
        dur -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)
      in
      let n, t, st =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name (n + 1, t +. dur, st +. self))
    spans;
  Hashtbl.fold (fun name (n, t, st) acc -> (name, n, t, st) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let self_time_table spans =
  let rows = self_times spans in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-28s %8s %12s %12s\n" "layer span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, t, st) -> Printf.bprintf buf "%-28s %8d %12.6f %12.6f\n" name n t st)
    rows;
  Buffer.contents buf

let chrome_trace spans =
  let module R = Wayplace.Sim.Report in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let event s =
    R.Jobj
      [
        ("name", R.Jstring s.name);
        ("cat", R.Jstring "wpbench");
        ("ph", R.Jstring "X");
        ("ts", R.Jfloat ((s.start -. t0) *. 1e6));
        ("dur", R.Jfloat ((s.stop -. s.start) *. 1e6));
        ("pid", R.Jint 1);
        ("tid", R.Jint s.tid);
        ( "args",
          R.Jobj [ ("id", R.Jint s.id); ("parent", R.Jint s.parent); ("tag", R.Jstring s.tag) ] );
      ]
  in
  R.Jobj [ ("traceEvents", R.Jlist (List.map event spans)); ("displayTimeUnit", R.Jstring "ms") ]

(* Write the trace and the table under [dir]; returns the table. *)
let write ~dir ~prefix =
  let spans = !recorded in
  let table = self_time_table spans in
  (try
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     ignore
       (Wayplace.Sim.Report.write_json
          ~path:(Filename.concat dir (prefix ^ "-trace.json"))
          (chrome_trace spans));
     Out_channel.with_open_text (Filename.concat dir (prefix ^ "-selftime.txt"))
       (fun oc -> output_string oc table)
   with Sys_error msg -> Printf.eprintf "[wpbench] could not write trace: %s\n%!" msg);
  table
