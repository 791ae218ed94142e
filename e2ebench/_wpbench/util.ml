(* Clocks, order statistics, digests and the workload inputs every
   workload shares. *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner
module Geometry = Wayplace.Cache.Geometry
module Mibench = Wayplace.Workloads.Mibench
module Account = Wayplace.Energy.Account
module Ed = Wayplace.Energy.Ed

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [q]-quantile with linear interpolation; 0 on an empty list. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Peak resident set of a process, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:0.0

(* ------------------------------------------------------------------ *)
(* Inputs.                                                              *)

let kb n = n * 1024
let wp n = Config.Way_placement { area_bytes = kb n }
let geometry size_kb ways = Geometry.make ~size_bytes:(kb size_kb) ~assoc:ways ~line_bytes:32
let at size_kb ways scheme = Config.with_icache (Config.xscale scheme) (geometry size_kb ways)

let five_schemes =
  [ Config.Baseline; wp 16; Config.Way_memoization; Config.Way_prediction;
    Config.Filter_cache { l0_bytes = 512 } ]

let fig6_geometries =
  List.concat_map (fun s -> List.map (fun w -> (s, w)) [ 8; 16; 32 ]) [ 8; 16; 32 ]

(* Short scheme names, as the serve protocol spells them. *)
let scheme_short = Wayplace.Serve.Protocol.scheme_to_string

let config_label (c : Config.t) =
  Printf.sprintf "%s@%dKB/%dw" (Config.scheme_name c.scheme)
    (c.icache.Geometry.size_bytes / 1024) c.icache.Geometry.assoc

(* Normalised I-cache energy and ED of [scheme] against [baseline]. *)
let norm_pair ~baseline ~scheme =
  ( Ed.normalised ~scheme:(Stats.icache_energy_pj scheme)
      ~baseline:(Stats.icache_energy_pj baseline),
    Ed.normalised_ed ~scheme_energy_pj:(Stats.total_energy_pj scheme)
      ~scheme_cycles:scheme.Stats.cycles
      ~baseline_energy_pj:(Stats.total_energy_pj baseline)
      ~baseline_cycles:baseline.Stats.cycles )

(* ------------------------------------------------------------------ *)
(* Output check: a cell's digest covers every integer counter and every *)
(* energy bucket, bit for bit.                                          *)

let stats_digest (s : Stats.t) =
  let a = s.Stats.account in
  let ints = Stats.snapshot_ints s |> Array.to_list |> List.map string_of_int in
  let floats =
    List.map (Printf.sprintf "%h")
      Account.[ icache_pj a; itlb_pj a; dcache_pj a; memory_pj a; core_pj a; total_pj a ]
  in
  Digest.to_hex (Digest.string (String.concat "," (ints @ floats)))

(* The recorded reference results: "<id> <md5>" per line. *)
let load_digests path =
  let tbl = Hashtbl.create 2048 in
  (match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> ()
  | text ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ id; d ] -> Hashtbl.replace tbl id d
          | _ -> ())
        (String.split_on_char '\n' text));
  tbl
