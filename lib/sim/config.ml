type scheme =
  | Baseline
  | Way_placement of { area_bytes : int }
  | Way_memoization
  | Way_prediction
  | Filter_cache of { l0_bytes : int }

type t = {
  icache : Wp_cache.Geometry.t;
  dcache : Wp_cache.Geometry.t;
  replacement : Wp_cache.Replacement.t;
  itlb_entries : int;
  dtlb_entries : int;
  page_bytes : int;
  memory_latency : int;
  tlb_walk_latency : int;
  btb_entries : int;
  mispredict_penalty : int;
  energy : Wp_energy.Params.t;
  scheme : scheme;
  same_line_elision : bool;
  memo_invalidation : Wp_cache.Way_memo.invalidation;
  leakage_enabled : bool;
  drowsy_window_fetches : int option;
}

let xscale scheme =
  let cache =
    Wp_cache.Geometry.make ~size_bytes:(32 * 1024) ~assoc:32 ~line_bytes:32
  in
  {
    icache = cache;
    dcache = cache;
    replacement = Wp_cache.Replacement.Round_robin;
    itlb_entries = 32;
    dtlb_entries = 32;
    page_bytes = 1024;
    memory_latency = 50;
    tlb_walk_latency = 50;
    btb_entries = 128;
    mispredict_penalty = 4;
    energy = Wp_energy.Params.default;
    scheme;
    same_line_elision = true;
    memo_invalidation = Wp_cache.Way_memo.Flash_clear;
    leakage_enabled = false;
    drowsy_window_fetches = None;
  }

let with_icache t icache = { t with icache }
let with_replacement t replacement = { t with replacement }
let with_scheme t scheme = { t with scheme }
let with_energy t energy = { t with energy }
let with_same_line_elision t same_line_elision = { t with same_line_elision }
let with_memo_invalidation t memo_invalidation = { t with memo_invalidation }
let with_leakage t leakage_enabled = { t with leakage_enabled }
let with_drowsy t drowsy_window_fetches = { t with drowsy_window_fetches }

let validate t =
  if t.itlb_entries <= 0 || t.dtlb_entries <= 0 then Error "TLBs need entries"
  else if not (Wp_isa.Addr.is_power_of_two t.page_bytes) then
    Error "page size must be a power of two"
  else if t.memory_latency < 1 || t.tlb_walk_latency < 0 then
    Error "bad latencies"
  else begin
    let scheme_ok =
      match t.scheme with
      | Baseline | Way_memoization | Way_prediction -> Ok ()
      | Filter_cache { l0_bytes } ->
          if
            Wp_isa.Addr.is_power_of_two l0_bytes
            && l0_bytes >= t.icache.Wp_cache.Geometry.line_bytes
            && l0_bytes < t.icache.Wp_cache.Geometry.size_bytes
          then Ok ()
          else Error "filter-cache L0 must be a power of two smaller than L1"
      | Way_placement { area_bytes } ->
          if area_bytes <= 0 then Error "way-placement area must be positive"
          else if area_bytes mod t.page_bytes <> 0 then
            Error
              (Printf.sprintf
                 "way-placement area (%d B) must be a multiple of the page size (%d B)"
                 area_bytes t.page_bytes)
          else Ok ()
    in
    match scheme_ok with
    | Error _ as e -> e
    | Ok () -> begin
        match t.drowsy_window_fetches with
        | None -> Ok ()
        | Some w ->
            if w <= 0 then Error "drowsy window must be positive"
            else if not t.leakage_enabled then
              Error "drowsy lines need leakage accounting enabled"
            else begin
              match t.scheme with
              | Baseline | Way_placement _ -> Ok ()
              | Way_memoization | Way_prediction | Filter_cache _ ->
                  Error "drowsy lines are supported for baseline and way-placement"
            end
      end
  end

(* The runtime representation of a [t] is pure immutable data
   (scalars, records, variants), so marshalling is a total, stable
   encoding of the whole value: every field participates, including
   any added later.  [No_sharing] makes it a function of the value
   alone: with sharing, a config whose [icache] and [dcache] are one
   physical geometry ([xscale]) would encode differently from an equal
   one holding two copies ([with_icache]). *)
let digest (t : t) = Digest.string (Marshal.to_string t [ Marshal.No_sharing ])

let scheme_name = function
  | Baseline -> "baseline"
  | Way_placement { area_bytes } ->
      Printf.sprintf "way-placement(%dKB)" (area_bytes / 1024)
  | Way_memoization -> "way-memoization"
  | Way_prediction -> "way-prediction"
  | Filter_cache { l0_bytes } ->
      Printf.sprintf "filter-cache(%dB)" l0_bytes

let pp ppf t =
  Format.fprintf ppf
    "@[<v>scheme: %s@,i-cache: %a@,d-cache: %a@,replacement: %s@,\
     i-tlb/d-tlb: %d/%d entries, %d B pages@,memory: %d cycles@]"
    (scheme_name t.scheme) Wp_cache.Geometry.pp t.icache Wp_cache.Geometry.pp
    t.dcache
    (Wp_cache.Replacement.to_string t.replacement)
    t.itlb_entries t.dtlb_entries t.page_bytes t.memory_latency
