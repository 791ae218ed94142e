type fetch_kind = Same_line | Way_placed | Full | Link_follow

type hint_outcome = Correct_wp | Correct_normal | Missed_saving | Reaccess

type bucket = Icache | Itlb | Dcache | Memory | Core

type event =
  | Fetch of fetch_kind
  | Fetches of { kind : fetch_kind; n : int }
  | Icache_access of { hit : bool }
  | L0_access of { hit : bool }
  | Tag_comparisons of int
  | Tag_search of { ways : int }
  | Line_fill of { evicted : bool }
  | Hint of hint_outcome
  | Way_prediction of { correct : bool }
  | Link_write
  | Links_invalidated of int
  | Drowsy_wake
  | Itlb_miss
  | Dtlb_miss
  | Dcache_access of { miss : bool }
  | Energy of { bucket : bucket; pj : float }
  | Energy_run of { bucket : bucket; pj : float; n : int }
  | Retire of { cycles : int; instrs : int }
  | Resize of { area_bytes : int }
  | Flush
  | Context_switch of { next : int }

type t = event -> unit

let ignore_event (_ : event) = ()
let null : t = ignore_event

let bucket_name = function
  | Icache -> "icache"
  | Itlb -> "itlb"
  | Dcache -> "dcache"
  | Memory -> "memory"
  | Core -> "core"

let buckets = [ Icache; Itlb; Dcache; Memory; Core ]

let bucket_index = function
  | Icache -> 0
  | Itlb -> 1
  | Dcache -> 2
  | Memory -> 3
  | Core -> 4

let fetch_kind_name = function
  | Same_line -> "same_line"
  | Way_placed -> "way_placed"
  | Full -> "full"
  | Link_follow -> "link_follow"

