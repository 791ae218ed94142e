module Counter = struct
  type t =
    | Same_line_fetches
    | Wp_fetches
    | Full_fetches
    | Link_follows
    | Icache_hits
    | Icache_misses
    | L0_hits
    | L0_misses
    | Tag_comparisons
    | Hint_correct_wp
    | Hint_correct_normal
    | Hint_missed_saving
    | Hint_reaccess
    | Waypred_correct
    | Waypred_wrong
    | Drowsy_wakes
    | Link_writes
    | Links_invalidated
    | Itlb_misses
    | Dtlb_misses
    | Dcache_accesses
    | Dcache_misses
    | Line_fills
    | Evictions

  let index = function
    | Same_line_fetches -> 0
    | Wp_fetches -> 1
    | Full_fetches -> 2
    | Link_follows -> 3
    | Icache_hits -> 4
    | Icache_misses -> 5
    | L0_hits -> 6
    | L0_misses -> 7
    | Tag_comparisons -> 8
    | Hint_correct_wp -> 9
    | Hint_correct_normal -> 10
    | Hint_missed_saving -> 11
    | Hint_reaccess -> 12
    | Waypred_correct -> 13
    | Waypred_wrong -> 14
    | Drowsy_wakes -> 15
    | Link_writes -> 16
    | Links_invalidated -> 17
    | Itlb_misses -> 18
    | Dtlb_misses -> 19
    | Dcache_accesses -> 20
    | Dcache_misses -> 21
    | Line_fills -> 22
    | Evictions -> 23

  let name = function
    | Same_line_fetches -> "same_line_fetches"
    | Wp_fetches -> "wp_fetches"
    | Full_fetches -> "full_fetches"
    | Link_follows -> "link_follows"
    | Icache_hits -> "icache_hits"
    | Icache_misses -> "icache_misses"
    | L0_hits -> "l0_hits"
    | L0_misses -> "l0_misses"
    | Tag_comparisons -> "tag_comparisons"
    | Hint_correct_wp -> "hint_correct_wp"
    | Hint_correct_normal -> "hint_correct_normal"
    | Hint_missed_saving -> "hint_missed_saving"
    | Hint_reaccess -> "hint_reaccess"
    | Waypred_correct -> "waypred_correct"
    | Waypred_wrong -> "waypred_wrong"
    | Drowsy_wakes -> "drowsy_wakes"
    | Link_writes -> "link_writes"
    | Links_invalidated -> "links_invalidated"
    | Itlb_misses -> "itlb_misses"
    | Dtlb_misses -> "dtlb_misses"
    | Dcache_accesses -> "dcache_accesses"
    | Dcache_misses -> "dcache_misses"
    | Line_fills -> "line_fills"
    | Evictions -> "evictions"

  let all =
    [
      Same_line_fetches;
      Wp_fetches;
      Full_fetches;
      Link_follows;
      Icache_hits;
      Icache_misses;
      L0_hits;
      L0_misses;
      Tag_comparisons;
      Hint_correct_wp;
      Hint_correct_normal;
      Hint_missed_saving;
      Hint_reaccess;
      Waypred_correct;
      Waypred_wrong;
      Drowsy_wakes;
      Link_writes;
      Links_invalidated;
      Itlb_misses;
      Dtlb_misses;
      Dcache_accesses;
      Dcache_misses;
      Line_fills;
      Evictions;
    ]

  let count = List.length all
end

let n_buckets = List.length Probe.buckets

type marker =
  | Resize of { cycle : int; area_bytes : int }
  | Flush of { cycle : int }
  | Switch of { cycle : int; next : int }

let marker_cycle = function
  | Resize { cycle; _ } -> cycle
  | Flush { cycle } -> cycle
  | Switch { cycle; _ } -> cycle

type window = {
  index : int;
  start_cycle : int;
  end_cycle : int;
  retired : int;
  counters : int array;
  energy_pj : float array;
  cum_energy_pj : float array;
  ways_hist : (int * int) list;
  markers : marker list;
}

let get w c = w.counters.(Counter.index c)

let fetches w =
  get w Same_line_fetches + get w Wp_fetches + get w Full_fetches
  + get w Link_follows

let cycles w = w.end_cycle - w.start_cycle

let ipc w =
  let c = cycles w in
  if c = 0 then 0.0 else float_of_int w.retired /. float_of_int c

let default_window_cycles = 10_000

type t = {
  window_cycles : int;
  mutable closed : window list; (* reversed *)
  mutable index : int;
  mutable cycles : int; (* cumulative, from the last Retire *)
  mutable instrs : int;
  mutable next_boundary : int;
  mutable start_cycle : int;
  mutable start_instrs : int;
  counters : int array;
  energy : float array;
  cum_energy : float array;
  mutable ways : int array;
      (* CAM searches per ways-precharged count, indexed by ways; grown
         on demand, so a search costs an array bump, not a hash *)
  mutable markers : marker list; (* reversed, current window *)
  mutable finished : bool;
}

let create ?(window_cycles = default_window_cycles) () =
  if window_cycles <= 0 then
    invalid_arg "Sampler.create: window_cycles must be positive";
  {
    window_cycles;
    closed = [];
    index = 0;
    cycles = 0;
    instrs = 0;
    next_boundary = window_cycles;
    start_cycle = 0;
    start_instrs = 0;
    counters = Array.make Counter.count 0;
    energy = Array.make n_buckets 0.0;
    cum_energy = Array.make n_buckets 0.0;
    ways = Array.make 33 0;
    markers = [];
    finished = false;
  }

let window_is_empty t =
  t.cycles = t.start_cycle
  && t.instrs = t.start_instrs
  && t.markers = []
  && Array.for_all (fun c -> c = 0) t.counters
  && Array.for_all (fun e -> e = 0.0) t.energy

let close_window t =
  let ways_hist = ref [] in
  for ways = Array.length t.ways - 1 downto 0 do
    let n = t.ways.(ways) in
    if n > 0 then ways_hist := (ways, n) :: !ways_hist
  done;
  let w =
    {
      index = t.index;
      start_cycle = t.start_cycle;
      end_cycle = t.cycles;
      retired = t.instrs - t.start_instrs;
      counters = Array.copy t.counters;
      energy_pj = Array.copy t.energy;
      cum_energy_pj = Array.copy t.cum_energy;
      ways_hist = !ways_hist;
      markers = List.rev t.markers;
    }
  in
  t.closed <- w :: t.closed;
  t.index <- t.index + 1;
  t.start_cycle <- t.cycles;
  t.start_instrs <- t.instrs;
  t.next_boundary <- ((t.cycles / t.window_cycles) + 1) * t.window_cycles;
  Array.fill t.counters 0 Counter.count 0;
  Array.fill t.energy 0 n_buckets 0.0;
  Array.fill t.ways 0 (Array.length t.ways) 0;
  t.markers <- []

let bump t c = t.counters.(Counter.index c) <- t.counters.(Counter.index c) + 1

let bump_by t c n =
  t.counters.(Counter.index c) <- t.counters.(Counter.index c) + n

let fetch_counter : Probe.fetch_kind -> Counter.t = function
  | Same_line -> Same_line_fetches
  | Way_placed -> Wp_fetches
  | Full -> Full_fetches
  | Link_follow -> Link_follows

let note_search t ways =
  if ways >= Array.length t.ways then begin
    let grown = Array.make (max (ways + 1) (2 * Array.length t.ways)) 0 in
    Array.blit t.ways 0 grown 0 (Array.length t.ways);
    t.ways <- grown
  end;
  t.ways.(ways) <- t.ways.(ways) + 1

(* The window and cumulative sums mirror the Account's own additions in
   the same order, so the final cumulative figure is bit-identical to
   [Stats.t]. *)
let add_energy t i pj =
  t.energy.(i) <- t.energy.(i) +. pj;
  t.cum_energy.(i) <- t.cum_energy.(i) +. pj

let energy_accumulators t = (t.energy, t.cum_energy)

let handle t (ev : Probe.event) =
  if not t.finished then
    match ev with
    | Fetch kind -> bump t (fetch_counter kind)
    | Fetches { kind; n } -> bump_by t (fetch_counter kind) n
    | Icache_access { hit } ->
        bump t (if hit then Icache_hits else Icache_misses)
    | L0_access { hit } -> bump t (if hit then L0_hits else L0_misses)
    | Tag_comparisons n -> bump_by t Tag_comparisons n
    | Tag_search { ways } -> note_search t ways
    | Line_fill { evicted } ->
        bump t Line_fills;
        if evicted then bump t Evictions
    | Hint Correct_wp -> bump t Hint_correct_wp
    | Hint Correct_normal -> bump t Hint_correct_normal
    | Hint Missed_saving -> bump t Hint_missed_saving
    | Hint Reaccess -> bump t Hint_reaccess
    | Way_prediction { correct } ->
        bump t (if correct then Waypred_correct else Waypred_wrong)
    | Link_write -> bump t Link_writes
    | Links_invalidated n -> bump_by t Links_invalidated n
    | Drowsy_wake -> bump t Drowsy_wakes
    | Itlb_miss -> bump t Itlb_misses
    | Dtlb_miss -> bump t Dtlb_misses
    | Dcache_access { miss } ->
        bump t Dcache_accesses;
        if miss then bump t Dcache_misses
    | Energy { bucket; pj } -> add_energy t (Probe.bucket_index bucket) pj
    | Energy_run { bucket; pj; n } ->
        (* One by one, never [n *. pj]: the account's own sequence of
           float additions. *)
        let i = Probe.bucket_index bucket in
        for _ = 1 to n do
          add_energy t i pj
        done
    | Retire { cycles; instrs } ->
        t.cycles <- cycles;
        t.instrs <- instrs;
        if cycles >= t.next_boundary then close_window t
    | Resize { area_bytes } ->
        t.markers <- Resize { cycle = t.cycles; area_bytes } :: t.markers
    | Flush -> t.markers <- Flush { cycle = t.cycles } :: t.markers
    | Context_switch { next } ->
        t.markers <- Switch { cycle = t.cycles; next } :: t.markers

let observe = handle

(* A closure of arity one (not a partial application of [handle]), so
   each event is one indirect call straight into [handle]. *)
let probe t : Probe.t =
  let sink ev = handle t ev in
  sink

let count t c n = if not t.finished then bump_by t c n

let tag_search t ~ways = if not t.finished then note_search t ways

let fetch_access t kind ~comparisons ~hit =
  if not t.finished then begin
    bump t (fetch_counter kind);
    bump_by t Tag_comparisons comparisons;
    bump t (if hit then Icache_hits else Icache_misses)
  end

let next_boundary t = if t.finished then max_int else t.next_boundary

let finish t =
  if not t.finished then begin
    (* Trailing events after the last boundary (end-of-run leakage,
       core-rest energy) live in one final, possibly short window. *)
    if (not (window_is_empty t)) || t.closed = [] then close_window t;
    t.finished <- true
  end;
  List.rev t.closed

let sum_counters (windows : window list) =
  let acc = Array.make Counter.count 0 in
  List.iter
    (fun (w : window) ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) w.counters)
    windows;
  acc

let sum_energy (windows : window list) =
  let acc = Array.make n_buckets 0.0 in
  List.iter
    (fun (w : window) ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) w.energy_pj)
    windows;
  acc

let final_cum_energy windows =
  match List.rev windows with
  | [] -> Array.make n_buckets 0.0
  | last :: _ -> Array.copy last.cum_energy_pj
