module Config = Wp_sim.Config
module Stats = Wp_sim.Stats
module Runner = Wp_sim.Runner
module Sweep = Wp_sim.Sweep
module Spec = Wp_workloads.Spec
module Tracer = Wp_workloads.Tracer
module Geometry = Wp_cache.Geometry
module Replacement = Wp_cache.Replacement

type violation = string

type report = {
  seed : int;
  spec : Spec.t;
  violations : violation list;
  shrunk : Spec.t;
  shrunk_violations : violation list;
}

let default_geometries =
  [
    Geometry.make ~size_bytes:512 ~assoc:4 ~line_bytes:16;
    Geometry.make ~size_bytes:1024 ~assoc:8 ~line_bytes:32;
  ]

(* One run of the grid: a labelled configuration.  The first geometry
   also carries the ablations (LRU, elision off, precise invalidation);
   the rest run the five plain schemes. *)
let configs_for ~ablations geometry =
  let line = geometry.Geometry.line_bytes in
  let l0_bytes = min (4 * line) (geometry.Geometry.size_bytes / 2) in
  let base scheme = Config.with_icache (Config.xscale scheme) geometry in
  let plain =
    [
      ("baseline", base Config.Baseline);
      ("wayplace", base (Config.Way_placement { area_bytes = 2048 }));
      ("waymemo", base Config.Way_memoization);
      ("waypred", base Config.Way_prediction);
      ("filter", base (Config.Filter_cache { l0_bytes }));
    ]
  in
  if not ablations then plain
  else
    plain
    @ [
        ( "baseline-lru",
          Config.with_replacement (base Config.Baseline) Replacement.Lru );
        ( "waypred-lru",
          Config.with_replacement (base Config.Way_prediction) Replacement.Lru );
        ( "baseline-noelide",
          Config.with_same_line_elision (base Config.Baseline) false );
        ( "waymemo-precise",
          Config.with_memo_invalidation (base Config.Way_memoization)
            Wp_cache.Way_memo.Precise );
      ]

(* ------------------------------------------------------------------ *)
(* The oracle replay: the baseline fetch path re-executed from first
   principles — walk the trace, resolve each pc from the layout, elide
   sequential same-line fetches, send everything else to the naive
   cache model. *)

type oracle_counts = {
  o_fetches : int;
  o_same_line : int;
  o_hits : int;
  o_misses : int;
  o_tag_comparisons : int;
}

let replay_baseline_oracle ~geometry ~replacement ~elision ~graph ~layout
    ~(trace : Tracer.trace) =
  let cache = Oracle_cache.create geometry ~replacement in
  let fetches = ref 0 and same_line = ref 0 in
  let hits = ref 0 and misses = ref 0 and tag_comparisons = ref 0 in
  let prev = ref (-1) in
  Array.iter
    (fun id ->
      let start = Wp_layout.Binary_layout.block_start layout id in
      let n = Wp_cfg.Basic_block.size_instrs (Wp_cfg.Icfg.block graph id) in
      for i = 0 to n - 1 do
        let pc = start + (i * Wp_isa.Instr.size_bytes) in
        incr fetches;
        if elision && !prev >= 0 && Geometry.same_line geometry pc !prev then
          incr same_line
        else begin
          let o = Oracle_cache.lookup_full cache pc in
          tag_comparisons := !tag_comparisons + o.Oracle_cache.tag_comparisons;
          if o.Oracle_cache.hit then incr hits
          else begin
            incr misses;
            ignore (Oracle_cache.fill cache pc Oracle_cache.Victim_by_policy)
          end
        end;
        prev := pc
      done)
    trace.Tracer.blocks;
  {
    o_fetches = !fetches;
    o_same_line = !same_line;
    o_hits = !hits;
    o_misses = !misses;
    o_tag_comparisons = !tag_comparisons;
  }

(* ------------------------------------------------------------------ *)
(* Invariant checks.  Each returns violations as strings; [where]
   prefixes them with the run's label and geometry. *)

let rel_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_counters ~where (config : Config.t) (s : Stats.t)
    (trace : Tracer.trace) =
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> v := (where ^ ": " ^ msg) :: !v) fmt in
  let expect name actual expected =
    if actual <> expected then fail "%s = %d, expected %d" name actual expected
  in
  expect "retired_instrs" s.Stats.retired_instrs trace.Tracer.dynamic_instrs;
  expect "fetches" s.Stats.fetches trace.Tracer.dynamic_instrs;
  let non_elided = s.Stats.fetches - s.Stats.same_line_fetches in
  expect "same_line + wp + full + link_follows"
    (s.Stats.same_line_fetches + s.Stats.wp_fetches + s.Stats.full_fetches
   + s.Stats.link_follows)
    s.Stats.fetches;
  expect "icache_hits + icache_misses"
    (s.Stats.icache_hits + s.Stats.icache_misses)
    non_elided;
  if not config.Config.same_line_elision then
    expect "same_line_fetches (elision off)" s.Stats.same_line_fetches 0;
  if s.Stats.cycles < s.Stats.retired_instrs then
    fail "cycles %d < retired %d" s.Stats.cycles s.Stats.retired_instrs;
  (match config.Config.scheme with
  | Config.Baseline ->
      expect "wp_fetches (baseline)" s.Stats.wp_fetches 0;
      expect "link_follows (baseline)" s.Stats.link_follows 0;
      expect "full_fetches (baseline)" s.Stats.full_fetches non_elided;
      expect "l0 accesses (baseline)" (s.Stats.l0_hits + s.Stats.l0_misses) 0;
      expect "waypred counters (baseline)"
        (s.Stats.waypred_correct + s.Stats.waypred_wrong)
        0
  | Config.Way_placement _ ->
      expect "wp_fetches = hint_correct_wp" s.Stats.wp_fetches
        s.Stats.hint_correct_wp;
      expect "full = other hint outcomes" s.Stats.full_fetches
        (s.Stats.hint_correct_normal + s.Stats.hint_missed_saving
       + s.Stats.hint_reaccess);
      expect "hint outcomes partition non-elided"
        (s.Stats.hint_correct_wp + s.Stats.hint_correct_normal
       + s.Stats.hint_missed_saving + s.Stats.hint_reaccess)
        non_elided
  | Config.Way_memoization ->
      expect "wp_fetches (waymemo)" s.Stats.wp_fetches 0;
      expect "link_follows + full (waymemo)"
        (s.Stats.link_follows + s.Stats.full_fetches)
        non_elided
  | Config.Way_prediction ->
      expect "waypred outcomes partition non-elided"
        (s.Stats.waypred_correct + s.Stats.waypred_wrong)
        non_elided
  | Config.Filter_cache _ ->
      expect "l0 outcomes partition non-elided"
        (s.Stats.l0_hits + s.Stats.l0_misses)
        non_elided);
  !v

(* Recompute every energy bucket of a baseline run from its counters
   alone and compare with the simulator's account: the accounting can
   then never drift from the events it claims to charge for (PR 1's
   filter-cache bug, caught structurally). *)
let check_baseline_energy ~where (config : Config.t) (s : Stats.t) =
  match config.Config.scheme with
  | Config.Way_placement _ | Config.Way_memoization | Config.Way_prediction
  | Config.Filter_cache _ ->
      []
  | Config.Baseline ->
      let v = ref [] in
      let expect name actual expected =
        if not (rel_close actual expected) then
          v :=
            Printf.sprintf "%s: %s = %.6g pJ, recomputed %.6g pJ" where name
              actual expected
            :: !v
      in
      let p = config.Config.energy in
      let ie = Wp_energy.Cam_energy.of_geometry p config.Config.icache in
      let de = Wp_energy.Cam_energy.of_geometry p config.Config.dcache in
      let assoc = config.Config.icache.Geometry.assoc in
      let f = float_of_int in
      let non_elided = s.Stats.fetches - s.Stats.same_line_fetches in
      let acct = s.Stats.account in
      expect "icache"
        (Wp_energy.Account.icache_pj acct)
        (f non_elided
         *. (Wp_energy.Cam_energy.tag_search ie ~ways:assoc
            +. ie.Wp_energy.Cam_energy.data_word_pj)
        +. (f s.Stats.same_line_fetches *. ie.Wp_energy.Cam_energy.data_word_pj)
        +. (f s.Stats.icache_misses *. ie.Wp_energy.Cam_energy.line_fill_pj));
      expect "itlb"
        (Wp_energy.Account.itlb_pj acct)
        (f non_elided
        *. Wp_energy.Cam_energy.tlb_lookup_pj p
             ~entries:config.Config.itlb_entries
             ~page_bytes:config.Config.page_bytes);
      expect "memory"
        (Wp_energy.Account.memory_pj acct)
        (f
           (s.Stats.itlb_misses + s.Stats.dtlb_misses + s.Stats.icache_misses
          + s.Stats.dcache_misses)
        *. p.Wp_energy.Params.memory_access_pj);
      expect "dcache"
        (Wp_energy.Account.dcache_pj acct)
        (f s.Stats.dcache_accesses
         *. (Wp_energy.Cam_energy.tlb_lookup_pj p
               ~entries:config.Config.dtlb_entries
               ~page_bytes:config.Config.page_bytes
            +. Wp_energy.Cam_energy.tag_search de
                 ~ways:config.Config.dcache.Geometry.assoc
            +. de.Wp_energy.Cam_energy.data_word_pj)
        +. (f s.Stats.dcache_misses *. de.Wp_energy.Cam_energy.line_fill_pj));
      expect "core"
        (Wp_energy.Account.core_pj acct)
        (f s.Stats.cycles *. p.Wp_energy.Params.core_rest_pj_per_cycle);
      !v

let check_oracle ~where (config : Config.t) (s : Stats.t) ~graph ~layout ~trace =
  match config.Config.scheme with
  | Config.Way_placement _ | Config.Way_memoization | Config.Way_prediction
  | Config.Filter_cache _ ->
      []
  | Config.Baseline ->
      let o =
        replay_baseline_oracle ~geometry:config.Config.icache
          ~replacement:config.Config.replacement
          ~elision:config.Config.same_line_elision ~graph ~layout ~trace
      in
      let v = ref [] in
      let expect name actual expected =
        if actual <> expected then
          v :=
            Printf.sprintf "%s: %s = %d, oracle says %d" where name actual
              expected
            :: !v
      in
      expect "fetches" s.Stats.fetches o.o_fetches;
      expect "same_line_fetches" s.Stats.same_line_fetches o.o_same_line;
      expect "icache_hits" s.Stats.icache_hits o.o_hits;
      expect "icache_misses" s.Stats.icache_misses o.o_misses;
      expect "tag_comparisons" s.Stats.tag_comparisons o.o_tag_comparisons;
      !v

(* Equalities between two runs of the same program. *)
let expect_same ~where results pairs fields =
  List.concat_map
    (fun (la, lb) ->
      match (List.assoc_opt la results, List.assoc_opt lb results) with
      | Some (a : Stats.t), Some (b : Stats.t) ->
          List.filter_map
            (fun (name, (get : Stats.t -> int)) ->
              if get a = get b then None
              else
                Some
                  (Printf.sprintf "%s: %s vs %s: %s %d <> %d" where la lb name
                     (get a) (get b)))
            fields
      | _, _ -> [])
    pairs

let execution_fields =
  [
    ("retired_instrs", fun (s : Stats.t) -> s.Stats.retired_instrs);
    ("fetches", fun s -> s.Stats.fetches);
    ("dcache_accesses", fun s -> s.Stats.dcache_accesses);
    ("dcache_misses", fun s -> s.Stats.dcache_misses);
    ("dtlb_misses", fun s -> s.Stats.dtlb_misses);
  ]

let hit_miss_fields =
  [
    ("same_line_fetches", fun (s : Stats.t) -> s.Stats.same_line_fetches);
    ("icache_hits", fun s -> s.Stats.icache_hits);
    ("icache_misses", fun s -> s.Stats.icache_misses);
  ]

let check_cross ~where results =
  let labels = List.map fst results in
  let vs_baseline = List.map (fun l -> ("baseline", l)) labels in
  (* Execution is layout- and scheme-independent: way-placement (which
     runs the reordered binary) must agree too. *)
  expect_same ~where results vs_baseline execution_fields
  (* The pure energy schemes may not change one hit/miss decision.
     Way-memoization qualifies only under round-robin: blind link
     follows skip LRU touches, so its recency state diverges by
     design.  Way-prediction preserves even LRU state (same touches,
     same order).  The filter cache is architecturally different (its
     L1 sees only L0 misses) and is excluded. *)
  @ expect_same ~where results
      [
        ("baseline", "waymemo");
        ("baseline", "waymemo-precise");
        ("baseline", "waypred");
        ("baseline-lru", "waypred-lru");
      ]
      hit_miss_fields

(* ------------------------------------------------------------------ *)
(* Probe invariance: observability must be read-only.  Rerunning a grid
   cell with a sampler attached has to leave the statistics
   bit-identical, and the sampler's own aggregates have to reproduce
   them — counter sums exactly, retired/cycles exactly, and cumulative
   per-bucket energy bit-for-bit (the sampler mirrors the account's
   additions in order). *)

module Sampler = Wp_obs.Sampler

(* The Stats.t field each sampler counter mirrors; [None] for counters
   with no stats counterpart (line fills and evictions are cache
   internals the stats never count). *)
let counter_stat (s : Stats.t) = function
  | Sampler.Counter.Same_line_fetches -> Some s.Stats.same_line_fetches
  | Sampler.Counter.Wp_fetches -> Some s.Stats.wp_fetches
  | Sampler.Counter.Full_fetches -> Some s.Stats.full_fetches
  | Sampler.Counter.Link_follows -> Some s.Stats.link_follows
  | Sampler.Counter.Icache_hits -> Some s.Stats.icache_hits
  | Sampler.Counter.Icache_misses -> Some s.Stats.icache_misses
  | Sampler.Counter.L0_hits -> Some s.Stats.l0_hits
  | Sampler.Counter.L0_misses -> Some s.Stats.l0_misses
  | Sampler.Counter.Tag_comparisons -> Some s.Stats.tag_comparisons
  | Sampler.Counter.Hint_correct_wp -> Some s.Stats.hint_correct_wp
  | Sampler.Counter.Hint_correct_normal -> Some s.Stats.hint_correct_normal
  | Sampler.Counter.Hint_missed_saving -> Some s.Stats.hint_missed_saving
  | Sampler.Counter.Hint_reaccess -> Some s.Stats.hint_reaccess
  | Sampler.Counter.Waypred_correct -> Some s.Stats.waypred_correct
  | Sampler.Counter.Waypred_wrong -> Some s.Stats.waypred_wrong
  | Sampler.Counter.Drowsy_wakes -> Some s.Stats.drowsy_wakes
  | Sampler.Counter.Link_writes -> Some s.Stats.link_writes
  | Sampler.Counter.Links_invalidated -> Some s.Stats.links_invalidated
  | Sampler.Counter.Itlb_misses -> Some s.Stats.itlb_misses
  | Sampler.Counter.Dtlb_misses -> Some s.Stats.dtlb_misses
  | Sampler.Counter.Dcache_accesses -> Some s.Stats.dcache_accesses
  | Sampler.Counter.Dcache_misses -> Some s.Stats.dcache_misses
  | Sampler.Counter.Line_fills | Sampler.Counter.Evictions -> None

let bucket_total acct = function
  | Wp_obs.Probe.Icache -> Wp_energy.Account.icache_pj acct
  | Wp_obs.Probe.Itlb -> Wp_energy.Account.itlb_pj acct
  | Wp_obs.Probe.Dcache -> Wp_energy.Account.dcache_pj acct
  | Wp_obs.Probe.Memory -> Wp_energy.Account.memory_pj acct
  | Wp_obs.Probe.Core -> Wp_energy.Account.core_pj acct

let check_probe ~where prepared (config : Config.t) (s : Stats.t) =
  (* A short window so generated programs still produce several
     windows and boundary handling gets exercised. *)
  let sampler = Sampler.create ~window_cycles:1024 () in
  match Runner.run_scheme ~probe:(Sampler.probe sampler) prepared config with
  | exception exn ->
      [
        Printf.sprintf "%s: probed run raised: %s" where
          (Printexc.to_string exn);
      ]
  | probed ->
      let windows = Sampler.finish sampler in
      let v = ref [] in
      let fail fmt =
        Printf.ksprintf (fun msg -> v := (where ^ ": " ^ msg) :: !v) fmt
      in
      if not (Stats.equal s probed) then
        fail "probe changed the stats: %s"
          (Format.asprintf "%a" Stats.pp_diff (s, probed));
      let sums = Sampler.sum_counters windows in
      List.iter
        (fun c ->
          match counter_stat probed c with
          | None -> ()
          | Some expected ->
              let actual = sums.(Sampler.Counter.index c) in
              if actual <> expected then
                fail "window sum %s = %d, stats say %d"
                  (Sampler.Counter.name c) actual expected)
        Sampler.Counter.all;
      let retired =
        List.fold_left
          (fun acc (w : Sampler.window) -> acc + w.Sampler.retired)
          0 windows
      in
      if retired <> probed.Stats.retired_instrs then
        fail "window retired sum = %d, stats say %d" retired
          probed.Stats.retired_instrs;
      (match List.rev windows with
      | [] -> fail "sampler produced no windows"
      | (last : Sampler.window) :: _ ->
          if last.Sampler.end_cycle <> probed.Stats.cycles then
            fail "last window ends at cycle %d, stats say %d"
              last.Sampler.end_cycle probed.Stats.cycles);
      let cum = Sampler.final_cum_energy windows in
      List.iter
        (fun b ->
          let actual = cum.(Wp_obs.Probe.bucket_index b) in
          let expected = bucket_total probed.Stats.account b in
          if not (Float.equal actual expected) then
            fail "cumulative %s = %.9g pJ, account says %.9g pJ"
              (Wp_obs.Probe.bucket_name b) actual expected)
        Wp_obs.Probe.buckets;
      !v

(* Window identity: the sampled fast path is fed direct counts, batches
   runs and steps only the runs that could reach a window boundary, yet
   it must build exactly the windows a sampler attached as a plain
   probe to the per-instruction reference loop builds — every field,
   energy bit for bit — and leave the statistics unchanged.  Window
   sizes 1 and 7 put a boundary in nearly every block (so stepping,
   boundaries inside same-line runs, on missing run heads and across
   mispredict penalties all occur); 1024 is a realistic window.
   Way-placement cells also run a generated resize schedule that
   resizes at block 0, at two interior blocks and at the last block. *)

let window_sizes = [ 1; 7; 1024 ]

let generated_schedule ~seed (trace : Tracer.trace) =
  let n = Array.length trace.Tracer.blocks in
  let rng = Random.State.make [| seed; 0x5ced |] in
  let interior () = Random.State.int rng (max 1 n) in
  List.sort_uniq compare [ 0; interior (); interior (); max 0 (n - 1) ]
  |> List.map (fun at -> (at, 1024 * (1 + Random.State.int rng 4)))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The first field on which two windows differ, if any. *)
let window_mismatch (a : Sampler.window) (b : Sampler.window) =
  if a.Sampler.index <> b.Sampler.index then Some "index"
  else if a.Sampler.start_cycle <> b.Sampler.start_cycle then
    Some "start_cycle"
  else if a.Sampler.end_cycle <> b.Sampler.end_cycle then Some "end_cycle"
  else if a.Sampler.retired <> b.Sampler.retired then Some "retired"
  else if a.Sampler.counters <> b.Sampler.counters then Some "counters"
  else if not (same_bits a.Sampler.energy_pj b.Sampler.energy_pj) then
    Some "energy_pj"
  else if not (same_bits a.Sampler.cum_energy_pj b.Sampler.cum_energy_pj)
  then Some "cum_energy_pj"
  else if a.Sampler.ways_hist <> b.Sampler.ways_hist then Some "ways_hist"
  else if a.Sampler.markers <> b.Sampler.markers then Some "markers"
  else None

let compare_windows ~fast ~reference =
  let nf = List.length fast and nr = List.length reference in
  if nf <> nr then
    [ Printf.sprintf "fast path built %d windows, reference loop %d" nf nr ]
  else
    match
      List.find_map
        (fun ((f : Sampler.window), r) ->
          Option.map
            (fun field -> (f.Sampler.index, field))
            (window_mismatch f r))
        (List.combine fast reference)
    with
    | None -> []
    | Some (i, field) ->
        [
          Printf.sprintf "window %d: %s differs between fast path and reference"
            i field;
        ]

(* The same machine with a one-cycle memory, free table walks and a
   large mispredict penalty: the worst-case block bound then has little
   slack, so blocks are batched right up to the boundaries and the
   batch-or-step decision is exercised where it is closest to wrong. *)
let tight_latencies (config : Config.t) =
  {
    config with
    memory_latency = 1;
    tlb_walk_latency = 0;
    mispredict_penalty = 24;
  }

let check_windows ~where ~seed ?stats prepared (config : Config.t) =
  let trace = prepared.Runner.trace_large in
  let compiled = Runner.compiled_for prepared config in
  let schedules =
    ("", [])
    ::
    (match config.Config.scheme with
    | Config.Way_placement _ ->
        [ (" resized", generated_schedule ~seed trace) ]
    | Config.Baseline | Config.Way_memoization | Config.Way_prediction
    | Config.Filter_cache _ ->
        [])
  in
  List.concat_map
    (fun (tag, schedule) ->
      List.concat_map
        (fun window_cycles ->
          let where =
            Printf.sprintf "%s windows/%d%s" where window_cycles tag
          in
          (* The reference side attaches the sampler as a plain probe,
             so its windows are built from one event per access — the
             definition the fast path's direct counts must match. *)
          let run ~reference =
            let sampler = Sampler.create ~window_cycles () in
            let stats =
              if reference then
                Wp_sim.Simulator.run_compiled ~probe:(Sampler.probe sampler)
                  ~schedule ~config ~trace compiled
              else
                Wp_sim.Simulator.run_compiled ~sampler ~schedule ~config
                  ~trace compiled
            in
            (stats, Sampler.finish sampler)
          in
          match (run ~reference:false, run ~reference:true) with
          | exception exn ->
              [
                Printf.sprintf "%s: sampled run raised: %s" where
                  (Printexc.to_string exn);
              ]
          | (fast, fast_windows), (reference, reference_windows) ->
              let fail msg = where ^ ": " ^ msg in
              (if Stats.equal fast reference then []
               else
                 [
                   fail
                     ("sampled fast path diverges from sampled reference: "
                     ^ Format.asprintf "%a" Stats.pp_diff (fast, reference));
                 ])
              @ (match stats with
                | Some s when schedule = [] && not (Stats.equal s fast) ->
                    [
                      fail
                        ("sampler changed the fast path's stats: "
                        ^ Format.asprintf "%a" Stats.pp_diff (s, fast));
                    ]
                | Some _ | None -> [])
              @ List.map fail
                  (compare_windows ~fast:fast_windows
                     ~reference:reference_windows))
        window_sizes)
    schedules

(* The tentpole invariant of the block-batched fast path: for every
   cell of the grid, the replays must produce exactly equal
   statistics — every counter and every energy bucket bit-for-bit
   ([Stats.equal]).  [fast] is the cell's own run (fast path with
   steady-state fast-forward at its default, normally on); it is
   checked against a fast-forward run with the shared snapshot cache
   attached, against a fast-path run with fast-forward forced off, and
   against the per-instruction reference loop, so a fuzz failure
   distinguishes a cache-reuse bug from a fast-forward bug from a
   fast-path bug.

   The fast path charges the data side from an outcome log the grid
   has already warmed for the XScale D-cache.  A variant of the cell
   with another D-cache geometry and D-TLB size must get a log of its
   own: its fast runs, with fast-forward off and on, are checked
   against its own reference run, so a log key that leaves out a
   D-state field shows up as a divergence. *)

(* One cache across the whole fuzz corpus: later seeds run against
   entries published by earlier ones, which is exactly the cross-run
   reuse the serve daemon and sweep engine perform.  Scoped keys make
   cross-world hits impossible — that, too, is under test here. *)
let fastpath_cache = Wp_sim.Snapshot_cache.create ()

let check_fastpath ~where prepared (config : Config.t) (fast : Stats.t) =
  let trace = prepared.Runner.trace_large in
  let compiled = Runner.compiled_for prepared config in
  let cached_ff =
    match
      Wp_sim.Simulator.run_compiled ~fastforward:true
        ~snapshot_cache:fastpath_cache ~config ~trace compiled
    with
    | exception exn ->
        [
          Printf.sprintf "%s: fast-forward run with snapshot cache raised: %s"
            where (Printexc.to_string exn);
        ]
    | cached ->
        if Stats.equal fast cached then []
        else
          [
            Printf.sprintf
              "%s: snapshot-cache reuse diverges from plain fast-forward: %s"
              where
              (Format.asprintf "%a" Stats.pp_diff (fast, cached));
          ]
  in
  let no_ff =
    match
      Wp_sim.Simulator.run_compiled ~fastforward:false ~config ~trace compiled
    with
    | exception exn ->
        [
          Printf.sprintf "%s: fast run (no fast-forward) raised: %s" where
            (Printexc.to_string exn);
        ]
    | plain ->
        if Stats.equal fast plain then []
        else
          [
            Printf.sprintf
              "%s: fast-forward diverges from plain fast path: %s" where
              (Format.asprintf "%a" Stats.pp_diff (fast, plain));
          ]
  in
  let vs_reference =
    match
      Wp_sim.Simulator.run_compiled ~reference_only:true ~config ~trace
        compiled
    with
    | exception exn ->
        [
          Printf.sprintf "%s: reference run raised: %s" where
            (Printexc.to_string exn);
        ]
    | reference ->
        if Stats.equal fast reference then []
        else
          [
            Printf.sprintf "%s: fast path diverges from reference: %s" where
              (Format.asprintf "%a" Stats.pp_diff (fast, reference));
          ]
  in
  let dside_variant =
    let config =
      {
        config with
        dcache = Geometry.make ~size_bytes:1024 ~assoc:4 ~line_bytes:16;
        dtlb_entries = 4;
      }
    in
    match
      ( Wp_sim.Simulator.run_compiled ~reference_only:true ~config ~trace
          compiled,
        List.map
          (fun fastforward ->
            ( fastforward,
              Wp_sim.Simulator.run_compiled ~fastforward ~config ~trace
                compiled ))
          [ false; true ] )
    with
    | exception exn ->
        [
          Printf.sprintf "%s: D-side variant raised: %s" where
            (Printexc.to_string exn);
        ]
    | reference, runs ->
        List.filter_map
          (fun (fastforward, variant) ->
            if Stats.equal variant reference then None
            else
              Some
                (Printf.sprintf
                   "%s: D-side variant (fast-forward %b) diverges from its \
                    reference: %s"
                   where fastforward
                   (Format.asprintf "%a" Stats.pp_diff (variant, reference))))
          runs
  in
  cached_ff @ no_ff @ vs_reference @ dside_variant

(* ------------------------------------------------------------------ *)
(* Multiprogramming checks (PR 8).  Two laws tie the mp machine to the
   single-process simulator and to itself:

   - identity: a single-process mix under an infinite quantum with no
     kernel IS the single-process simulator — the aggregate must be
     [Stats.equal] to the grid cell's own run, bit for bit;
   - under real time-slicing (finite quantum, kernel, a second
     process polluting the shared cache), the block-batched mp fast
     path, the per-instruction mp reference loop and a probed replay
     all agree exactly, per process and in aggregate, and per-process
     integer counters sum to the aggregate counter by counter. *)

module Mp = Wp_mp.Machine
module Mix = Wp_mp.Mix

(* The fixed cache-polluting partner for contention checks: small and
   loopy, so it revisits its own lines and evicts the fuzz program's. *)
let mp_partner_spec =
  {
    Spec.name = "mp-partner";
    seed = 0xBEEF;
    num_funcs = 3;
    blocks_per_func_min = 2;
    blocks_per_func_max = 4;
    instrs_per_block_min = 2;
    instrs_per_block_max = 5;
    max_loop_depth = 1;
    avg_loop_trips = 3;
    hot_func_fraction = 0.5;
    hot_call_bias = 0.5;
    if_taken_bias = 0.5;
    mem_ratio = 0.2;
    mac_ratio = 0.1;
    data_working_set_bytes = 512;
    trace_blocks_large = 120;
    trace_blocks_small = 60;
  }

let check_mp_identity ~where spec (config : Config.t) (cell : Stats.t) =
  List.concat_map
    (fun (path, reference_only) ->
      match
        Mp.run ~reference_only ~config ~options:Mp.oracle_options
          (Mix.of_specs [ spec ])
      with
      | exception exn ->
          [
            Printf.sprintf "%s: mp identity run (%s) raised: %s" where path
              (Printexc.to_string exn);
          ]
      | r ->
          if Stats.equal r.Mp.aggregate cell then []
          else
            [
              Printf.sprintf
                "%s: mp infinite-quantum single-process run (%s) diverges \
                 from Simulator.run: %s"
                where path
                (Format.asprintf "%a" Stats.pp_diff (r.Mp.aggregate, cell));
            ])
    [ ("fast path", false); ("reference path", true) ]

let mp_int_conservation ~where r =
  if Mp.conserves r then []
  else
    [
      Printf.sprintf
        "%s: per-process + system counters do not sum to the mp aggregate"
        where;
    ]

let check_mp_mix ~where spec (config : Config.t) =
  let mix = Mix.of_specs ~coverage:Mix.Half_placed [ spec; mp_partner_spec ] in
  let options = { Mp.default_options with Mp.quantum_cycles = 4_000 } in
  match Mp.run ~config ~options mix with
  | exception exn ->
      [
        Printf.sprintf "%s: mp fast run raised: %s" where
          (Printexc.to_string exn);
      ]
  | fast -> (
      match Mp.run ~reference_only:true ~config ~options mix with
      | exception exn ->
          [
            Printf.sprintf "%s: mp reference run raised: %s" where
              (Printexc.to_string exn);
          ]
      | refr ->
          let v = ref [] in
          let fail fmt =
            Printf.ksprintf (fun msg -> v := (where ^ ": " ^ msg) :: !v) fmt
          in
          if not (Stats.equal fast.Mp.aggregate refr.Mp.aggregate) then
            fail "mp fast path diverges from mp reference: %s"
              (Format.asprintf "%a" Stats.pp_diff
                 (fast.Mp.aggregate, refr.Mp.aggregate));
          List.iteri
            (fun i (pf : Mp.process_result) ->
              let pr = List.nth refr.Mp.processes i in
              if not (Stats.equal pf.Mp.pr_stats pr.Mp.pr_stats) then
                fail "mp fast path diverges from reference on process %d (%s)"
                  i pf.Mp.pr_name)
            fast.Mp.processes;
          if fast.Mp.switches <> refr.Mp.switches then
            fail "mp fast path saw %d switches, reference %d" fast.Mp.switches
              refr.Mp.switches;
          (* cache invariance: re-running with the corpus-wide snapshot
             cache attached (quantum-capped skips, cross-quantum
             re-convergence) must not move a bit, per process or in
             aggregate, and must take every switch at the same point. *)
          (match
             Mp.run
               ~snapshot_cache:fastpath_cache
               ~config ~options mix
           with
          | exception exn ->
              fail "mp snapshot-cache run raised: %s" (Printexc.to_string exn)
          | cached ->
              if not (Stats.equal cached.Mp.aggregate fast.Mp.aggregate) then
                fail "snapshot cache changed the mp aggregate: %s"
                  (Format.asprintf "%a" Stats.pp_diff
                     (cached.Mp.aggregate, fast.Mp.aggregate));
              List.iteri
                (fun i (pc : Mp.process_result) ->
                  let pf = List.nth fast.Mp.processes i in
                  if not (Stats.equal pc.Mp.pr_stats pf.Mp.pr_stats) then
                    fail
                      "snapshot cache changed mp process %d (%s)" i
                      pc.Mp.pr_name)
                cached.Mp.processes;
              if cached.Mp.switches <> fast.Mp.switches then
                fail "mp snapshot-cache run saw %d switches, plain saw %d"
                  cached.Mp.switches fast.Mp.switches);
          (* probe invariance: a probed replay (which also forces the
             reference loop) must not move a single bit, and its switch
             markers must recount the machine's switches. *)
          let sampler = Sampler.create ~window_cycles:1024 () in
          (match Mp.run ~probe:(Sampler.probe sampler) ~config ~options mix with
          | exception exn -> fail "probed mp run raised: %s" (Printexc.to_string exn)
          | probed ->
              let windows = Sampler.finish sampler in
              if not (Stats.equal probed.Mp.aggregate fast.Mp.aggregate) then
                fail "probe changed the mp aggregate: %s"
                  (Format.asprintf "%a" Stats.pp_diff
                     (probed.Mp.aggregate, fast.Mp.aggregate));
              let marker_switches =
                List.fold_left
                  (fun acc (w : Sampler.window) ->
                    acc
                    + List.length
                        (List.filter
                           (function Sampler.Switch _ -> true | _ -> false)
                           w.Sampler.markers))
                  0 windows
              in
              if marker_switches <> probed.Mp.switches then
                fail "sampler saw %d switch markers, machine reports %d"
                  marker_switches probed.Mp.switches;
              let retired =
                List.fold_left
                  (fun acc (w : Sampler.window) -> acc + w.Sampler.retired)
                  0 windows
              in
              if retired <> probed.Mp.aggregate.Stats.retired_instrs then
                fail "mp window retired sum = %d, aggregate says %d" retired
                  probed.Mp.aggregate.Stats.retired_instrs);
          !v @ mp_int_conservation ~where fast)

(* ------------------------------------------------------------------ *)
(* Static-analysis cross-checks (PR 4): a generator that emits an
   ill-formed binary is itself a bug, and the abstract must/may
   classification must agree with the simulated probe stream on every
   program the fuzzer produces. *)

let check_lint ~where graph layout =
  match Wp_lint.Wf_lint.check graph layout with
  | exception exn ->
      [ Printf.sprintf "%s: lint raised: %s" where (Printexc.to_string exn) ]
  | findings ->
      List.map
        (fun f -> Printf.sprintf "%s: %s" where (Format.asprintf "%a" Wp_lint.Finding.pp f))
        (Wp_lint.Finding.errors findings)

let check_contract ~where graph layout params =
  match Wp_lint.Contract.check graph layout params with
  | exception exn ->
      [ Printf.sprintf "%s: contract check raised: %s" where (Printexc.to_string exn) ]
  | findings ->
      List.map
        (fun f -> Printf.sprintf "%s: %s" where (Format.asprintf "%a" Wp_lint.Finding.pp f))
        (Wp_lint.Finding.errors findings)

let check_soundness ~where ~geometry ~program ~layout ~trace =
  match Wp_lint.Soundness.check ~geometry ~program ~layout ~trace () with
  | exception exn ->
      [
        Printf.sprintf "%s: soundness check raised: %s" where
          (Printexc.to_string exn);
      ]
  | r -> List.map (fun v -> where ^ ": " ^ v) r.Wp_lint.Soundness.violations

(* The PR 8 kernel is one fixed image; its reserved-area contract and
   the user layout's disjointness from it are checked once per process
   and reused across seeds.  Fuzz seeds run on several domains, where
   forcing one [Lazy.t] concurrently raises, hence the lock. *)
let kernel =
  let lock = Mutex.create () and memo = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !memo with
        | Some k -> k
        | None ->
            let k = Wp_mp.Kernel.prepare ~page_bytes:1024 in
            memo := Some k;
            k)

let check_reserved ~where graph user_layout =
  match kernel () with
  | exception exn ->
      [
        Printf.sprintf "%s: kernel prepare raised: %s" where
          (Printexc.to_string exn);
      ]
  | kernel ->
      let findings =
        Wp_lint.Contract.check_reserved kernel.Wp_mp.Kernel.program.Wp_workloads.Codegen.graph
          kernel.Wp_mp.Kernel.layout ~kernel_base:Wp_mp.Kernel.base
          ~kernel_area_bytes:kernel.Wp_mp.Kernel.area_bytes ~role:`Kernel
        @ Wp_lint.Contract.check_reserved graph user_layout
            ~kernel_base:Wp_mp.Kernel.base
            ~kernel_area_bytes:kernel.Wp_mp.Kernel.area_bytes ~role:`User
      in
      List.map
        (fun f ->
          Printf.sprintf "%s: %s" where
            (Format.asprintf "%a" Wp_lint.Finding.pp f))
        findings

(* The static placement advisor's laws (region bounds, PL001
   reproduction, schedule inside the energy envelope) on the placed
   layout.  Failure strings name the offending region so shrunk differ
   reports stay actionable. *)
let check_advise ~where ~geometry ~page_bytes ~area_bytes prepared =
  Wp_advise.Laws.check ~where ~geometry ~page_bytes ~area_bytes
    ~program:prepared.Runner.program ~profile:prepared.Runner.profile_small
    ~trace:prepared.Runner.trace_large ~layout:prepared.Runner.placed_layout
    ()

(* ------------------------------------------------------------------ *)

let check_spec ?(geometries = default_geometries) spec =
  match Runner.prepare spec with
  | exception exn ->
      [ Printf.sprintf "prepare raised: %s" (Printexc.to_string exn) ]
  | prepared ->
      let graph = prepared.Runner.program.Wp_workloads.Codegen.graph in
      let trace = prepared.Runner.trace_large in
      check_lint ~where:"lint original" graph prepared.Runner.original_layout
      @ check_lint ~where:"lint placed" graph prepared.Runner.placed_layout
      @ List.concat
        (List.mapi
           (fun i geometry ->
             let gname = Geometry.to_string geometry in
             let runs = configs_for ~ablations:(i = 0) geometry in
             let results =
               List.filter_map
                 (fun (label, config) ->
                   match Runner.run_scheme prepared config with
                   | stats -> Some (label, Ok (config, stats))
                   | exception exn -> Some (label, Error exn))
                 runs
             in
             let raised =
               List.filter_map
                 (fun (label, r) ->
                   match r with
                   | Error exn ->
                       Some
                         (Printf.sprintf "%s @ %s: simulator raised: %s" label
                            gname (Printexc.to_string exn))
                   | Ok _ -> None)
                 results
             in
             let ok =
               List.filter_map
                 (fun (label, r) ->
                   match r with
                   | Ok (config, stats) -> Some (label, (config, stats))
                   | Error _ -> None)
                 results
             in
             let stats_only = List.map (fun (l, (_, s)) -> (l, s)) ok in
             raised
             @ List.concat_map
                 (fun (label, (config, stats)) ->
                   let where = Printf.sprintf "%s @ %s" label gname in
                   let layout =
                     match config.Config.scheme with
                     | Config.Way_placement _ -> prepared.Runner.placed_layout
                     | _ -> prepared.Runner.original_layout
                   in
                   check_counters ~where config stats trace
                   @ check_fastpath ~where prepared config stats
                   @ check_baseline_energy ~where config stats
                   @ check_oracle ~where config stats ~graph ~layout ~trace
                   (* probed rerun doubles the cell's cost: first
                      geometry only *)
                   @ (if i = 0 then
                        check_probe ~where prepared config stats
                        @ check_windows ~where ~seed:spec.Spec.seed ~stats
                            prepared config
                        @
                        if label = "baseline" || label = "wayplace" then
                          check_windows ~where:(where ^ " tight")
                            ~seed:spec.Spec.seed prepared
                            (tight_latencies config)
                        else []
                      else [])
                   (* the mp identity oracle holds for every cell, on
                      both mp paths; the
                      full time-sliced agreement (fast = reference =
                      probed, conservation) costs three extra mp runs,
                      so first geometry, baseline + wayplace only *)
                   @ (if i = 0 then
                        check_mp_identity ~where:(where ^ " mp") spec config
                          stats
                        @ (if label = "baseline" || label = "wayplace" then
                             check_mp_mix ~where:(where ^ " mp-mix") spec
                               config
                           else [])
                      else []))
                 ok
             @ check_cross ~where:gname stats_only
             (* static-vs-dynamic: the must/may classification against
                the probe stream, on the original layout each geometry
                and additionally on the placed layout (plus the
                placement contract) for the first one *)
             @ check_soundness
                 ~where:(Printf.sprintf "soundness @ %s" gname)
                 ~geometry ~program:prepared.Runner.program
                 ~layout:prepared.Runner.original_layout ~trace
             @ (if i = 0 then
                  check_soundness
                    ~where:(Printf.sprintf "soundness placed @ %s" gname)
                    ~geometry ~program:prepared.Runner.program
                    ~layout:prepared.Runner.placed_layout ~trace
                  @ check_contract
                      ~where:(Printf.sprintf "contract placed @ %s" gname)
                      graph prepared.Runner.placed_layout
                      {
                        Wp_lint.Contract.geometry;
                        page_bytes = 1024;
                        area_bytes = 2048;
                        code_base = Wp_sim.Simulator.code_base;
                      }
                  @ check_reserved
                      ~where:(Printf.sprintf "reserved placed @ %s" gname)
                      graph prepared.Runner.placed_layout
                  @ check_advise
                      ~where:(Printf.sprintf "advise placed @ %s" gname)
                      ~geometry ~page_bytes:1024 ~area_bytes:2048 prepared
                else []))
           geometries)

let check_seed ?geometries seed = check_spec ?geometries (Progen.spec_of_seed seed)

let run_seed ?(check = fun spec -> check_spec spec) seed =
  let spec = Progen.spec_of_seed seed in
  match check spec with
  | [] -> None
  | violations ->
      let failing s = check s <> [] in
      let shrunk = Progen.minimize ~failing spec in
      Some { seed; spec; violations; shrunk; shrunk_violations = check shrunk }

let fuzz ?workers ?progress ~seed ~count () =
  let workers =
    match workers with Some w -> w | None -> Sweep.default_workers ()
  in
  let seeds = List.init count (fun i -> seed + i) in
  List.filter_map Fun.id (Sweep.Pool.map ~workers ?progress run_seed seeds)

let pp_list ppf = function
  | [] -> Format.fprintf ppf "  (none)@,"
  | vs ->
      List.iter (fun v -> Format.fprintf ppf "  - %s@," v) vs

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fuzz failure at seed %d (reproduce: wayplace_cli fuzz --seed %d \
     --count 1)@,original program: %a@,violations (%d):@,%a\
     shrunk program: %a@,violations on shrunk program (%d):@,%a@]"
    r.seed r.seed Spec.pp r.spec
    (List.length r.violations)
    pp_list r.violations Spec.pp r.shrunk
    (List.length r.shrunk_violations)
    pp_list r.shrunk_violations
