module Config = Wp_sim.Config
module Stats = Wp_sim.Stats
module Runner = Wp_sim.Runner
module Sweep = Wp_sim.Sweep
module Spec = Wp_workloads.Spec
module Tracer = Wp_workloads.Tracer
module Geometry = Wp_cache.Geometry
module Replacement = Wp_cache.Replacement

type violation = { law : string; message : string }

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.law v.message

type report = {
  seed : int;
  law : string;
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
(* What a law looks at.  Each law body returns its findings as bare
   messages; the fold ([check_spec], at the end) names the law and the
   run they belong to, and turns an exception into a violation. *)

type program = { spec : Spec.t; prepared : Runner.prepared }
type grid = { geometry : Geometry.t; results : (string * Stats.t) list Lazy.t }
type cell = { label : string; config : Config.t; stats : Stats.t }

let graph p = p.prepared.Runner.program.Wp_workloads.Codegen.graph
let trace p = p.prepared.Runner.trace_large

(* The one accumulator: messages in the order found. *)
type found = { mutable messages : string list }

let fail found fmt =
  Printf.ksprintf (fun m -> found.messages <- m :: found.messages) fmt

let collect body =
  let found = { messages = [] } in
  body found;
  List.rev found.messages

let expect found ?(says = "expected") name actual expected =
  if actual <> expected then
    fail found "%s = %d, %s %d" name actual says expected

let same_stats ~what a b =
  if Stats.equal a b then []
  else [ Format.asprintf "%s: %a" what Stats.pp_diff (a, b) ]

let rel_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_counters p { config; stats = s; _ } =
  let dynamic_instrs = (trace p).Tracer.dynamic_instrs in
  collect (fun found ->
      let expect = expect found in
      expect "retired_instrs" s.Stats.retired_instrs dynamic_instrs;
      expect "fetches" s.Stats.fetches dynamic_instrs;
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
        fail found "cycles %d < retired %d" s.Stats.cycles
          s.Stats.retired_instrs;
      match config.Config.scheme with
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
            non_elided)

(* Some laws hold of baseline runs only; on other cells they find
   nothing. *)
let baseline_only check p c =
  match c.config.Config.scheme with
  | Config.Baseline -> check p c
  | Config.Way_placement _ | Config.Way_memoization | Config.Way_prediction
  | Config.Filter_cache _ ->
      []

(* Recompute every energy bucket of a baseline run from its counters
   alone and compare with the simulator's account: the accounting can
   then never drift from the events it claims to charge for (PR 1's
   filter-cache bug, caught structurally). *)
let check_baseline_energy _ { config; stats = s; _ } =
  collect (fun found ->
      let expect name actual expected =
        if not (rel_close actual expected) then
          fail found "%s = %.6g pJ, recomputed %.6g pJ" name actual expected
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
        (f s.Stats.cycles *. p.Wp_energy.Params.core_rest_pj_per_cycle))

let check_oracle p { config; stats = s; _ } =
  let o =
    replay_baseline_oracle ~geometry:config.Config.icache
      ~replacement:config.Config.replacement
      ~elision:config.Config.same_line_elision ~graph:(graph p)
      ~layout:(Runner.layout_for p.prepared config) ~trace:(trace p)
  in
  collect (fun found ->
      let expect = expect found ~says:"oracle says" in
      expect "fetches" s.Stats.fetches o.o_fetches;
      expect "same_line_fetches" s.Stats.same_line_fetches o.o_same_line;
      expect "icache_hits" s.Stats.icache_hits o.o_hits;
      expect "icache_misses" s.Stats.icache_misses o.o_misses;
      expect "tag_comparisons" s.Stats.tag_comparisons o.o_tag_comparisons)

(* Equalities between two runs of the same program. *)
let expect_same results pairs fields =
  List.concat_map
    (fun (la, lb) ->
      match (List.assoc_opt la results, List.assoc_opt lb results) with
      | Some (a : Stats.t), Some (b : Stats.t) ->
          List.filter_map
            (fun (name, (get : Stats.t -> int)) ->
              if get a = get b then None
              else
                Some
                  (Printf.sprintf "%s vs %s: %s %d <> %d" la lb name (get a)
                     (get b)))
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

let check_cross _ grid =
  let results = Lazy.force grid.results in
  let vs_baseline = List.map (fun (l, _) -> ("baseline", l)) results in
  (* Execution is layout- and scheme-independent: way-placement (which
     runs the reordered binary) must agree too. *)
  expect_same results vs_baseline execution_fields
  (* The pure energy schemes may not change one hit/miss decision.
     Way-memoization qualifies only under round-robin: blind link
     follows skip LRU touches, so its recency state diverges by
     design.  Way-prediction preserves even LRU state (same touches,
     same order).  The filter cache is architecturally different (its
     L1 sees only L0 misses) and is excluded. *)
  @ expect_same results
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

let windows_retired windows =
  List.fold_left (fun acc (w : Sampler.window) -> acc + w.Sampler.retired) 0
    windows

let check_probe p { config; stats = s; _ } =
  (* A short window so generated programs still produce several
     windows and boundary handling gets exercised. *)
  let sampler = Sampler.create ~window_cycles:1024 () in
  let probed =
    Runner.run_scheme ~probe:(Sampler.probe sampler) p.prepared config
  in
  let windows = Sampler.finish sampler in
  same_stats ~what:"probe changed the stats" s probed
  @ collect (fun found ->
        let expect = expect found ~says:"stats say" in
        let sums = Sampler.sum_counters windows in
        List.iter
          (fun c ->
            Option.iter
              (expect
                 ("window sum " ^ Sampler.Counter.name c)
                 sums.(Sampler.Counter.index c))
              (counter_stat probed c))
          Sampler.Counter.all;
        expect "window retired sum" (windows_retired windows)
          probed.Stats.retired_instrs;
        (match List.rev windows with
        | [] -> fail found "sampler produced no windows"
        | (last : Sampler.window) :: _ ->
            expect "last window end_cycle" last.Sampler.end_cycle
              probed.Stats.cycles);
        let cum = Sampler.final_cum_energy windows in
        List.iter
          (fun b ->
            let actual = cum.(Wp_obs.Probe.bucket_index b) in
            let expected = bucket_total probed.Stats.account b in
            if not (Float.equal actual expected) then
              fail found "cumulative %s = %.9g pJ, account says %.9g pJ"
                (Wp_obs.Probe.bucket_name b) actual expected)
          Wp_obs.Probe.buckets)

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

let check_windows ?stats p (config : Config.t) =
  let compiled = Runner.compiled_for p.prepared config in
  let schedules =
    ("", [])
    ::
    (match config.Config.scheme with
    | Config.Way_placement _ ->
        [ (" resized", generated_schedule ~seed:p.spec.Spec.seed (trace p)) ]
    | Config.Baseline | Config.Way_memoization | Config.Way_prediction
    | Config.Filter_cache _ ->
        [])
  in
  List.concat_map
    (fun (tag, schedule) ->
      List.concat_map
        (fun window_cycles ->
          (* The reference side attaches the sampler as a plain probe,
             so its windows are built from one event per access — the
             definition the fast path's direct counts must match. *)
          let run ~reference =
            let sampler = Sampler.create ~window_cycles () in
            let stats =
              if reference then
                Wp_sim.Simulator.run_compiled ~probe:(Sampler.probe sampler)
                  ~schedule ~config ~trace:(trace p) compiled
              else
                Wp_sim.Simulator.run_compiled ~sampler ~schedule ~config
                  ~trace:(trace p) compiled
            in
            (stats, Sampler.finish sampler)
          in
          let reference, reference_windows = run ~reference:true in
          let fast, fast_windows = run ~reference:false in
          List.map
            (Printf.sprintf "windows/%d%s: %s" window_cycles tag)
            (same_stats
               ~what:"sampled fast path diverges from sampled reference" fast
               reference
            @ (match stats with
              | Some s when schedule = [] ->
                  same_stats ~what:"sampler changed the fast path's stats" s
                    fast
              | Some _ | None -> [])
            @ compare_windows ~fast:fast_windows ~reference:reference_windows))
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

let check_fastpath p { config; stats = fast; _ } =
  let compiled = Runner.compiled_for p.prepared config in
  let run ?snapshot_cache ?fastforward ?reference_only config =
    Wp_sim.Simulator.run_compiled ?snapshot_cache ?fastforward ?reference_only
      ~config ~trace:(trace p) compiled
  in
  let cached =
    run ~fastforward:true ~snapshot_cache:fastpath_cache config
  in
  let plain = run ~fastforward:false config in
  let reference = run ~reference_only:true config in
  let dside =
    {
      config with
      dcache = Geometry.make ~size_bytes:1024 ~assoc:4 ~line_bytes:16;
      dtlb_entries = 4;
    }
  in
  let dside_reference = run ~reference_only:true dside in
  let dside_fast =
    List.map (fun fastforward -> (fastforward, run ~fastforward dside))
      [ false; true ]
  in
  same_stats ~what:"snapshot-cache reuse diverges from plain fast-forward"
    fast cached
  @ same_stats ~what:"fast-forward diverges from plain fast path" fast plain
  @ same_stats ~what:"fast path diverges from reference" fast reference
  @ List.concat_map
      (fun (fastforward, variant) ->
        same_stats
          ~what:
            (Printf.sprintf
               "D-side variant (fast-forward %b) diverges from its reference"
               fastforward)
          variant dside_reference)
      dside_fast

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

let check_mp_identity p { config; stats = cell; _ } =
  List.concat_map
    (fun (path, reference_only) ->
      let r =
        Mp.run ~reference_only ~config ~options:Mp.oracle_options
          (Mix.of_specs [ p.spec ])
      in
      same_stats
        ~what:
          (Printf.sprintf
             "mp infinite-quantum single-process run (%s) diverges from \
              Simulator.run"
             path)
        r.Mp.aggregate cell)
    [ ("fast path", false); ("reference path", true) ]

(* Two mp runs of one mix agree in aggregate, on every process and on
   the switches taken. *)
let same_mp ~what (a : Mp.result) (b : Mp.result) =
  same_stats ~what a.Mp.aggregate b.Mp.aggregate
  @ List.concat
      (List.map2
         (fun (pa : Mp.process_result) (pb : Mp.process_result) ->
           same_stats
             ~what:(Printf.sprintf "%s on process %s" what pa.Mp.pr_name)
             pa.Mp.pr_stats pb.Mp.pr_stats)
         a.Mp.processes b.Mp.processes)
  @
  if a.Mp.switches = b.Mp.switches then []
  else
    [ Printf.sprintf "%s: %d switches, not %d" what a.Mp.switches b.Mp.switches ]

let check_mp_mix p { config; _ } =
  let mix =
    Mix.of_specs ~coverage:Mix.Half_placed [ p.spec; mp_partner_spec ]
  in
  let options = { Mp.default_options with Mp.quantum_cycles = 4_000 } in
  let fast = Mp.run ~config ~options mix in
  let refr = Mp.run ~reference_only:true ~config ~options mix in
  (* cache invariance: re-running with the corpus-wide snapshot cache
     attached (quantum-capped skips, cross-quantum re-convergence) must
     not move a bit, per process or in aggregate, and must take every
     switch at the same point. *)
  let cached = Mp.run ~snapshot_cache:fastpath_cache ~config ~options mix in
  (* probe invariance: a probed replay (which also forces the reference
     loop) must not move a single bit, and its switch markers must
     recount the machine's switches. *)
  let sampler = Sampler.create ~window_cycles:1024 () in
  let probed = Mp.run ~probe:(Sampler.probe sampler) ~config ~options mix in
  let windows = Sampler.finish sampler in
  let switch_markers =
    List.fold_left
      (fun acc (w : Sampler.window) ->
        acc
        + List.length
            (List.filter
               (function Sampler.Switch _ -> true | _ -> false)
               w.Sampler.markers))
      0 windows
  in
  same_mp ~what:"mp fast path diverges from mp reference" fast refr
  @ same_mp ~what:"snapshot cache changed the mp run" cached fast
  @ same_mp ~what:"probe changed the mp run" probed fast
  @ collect (fun found ->
        expect found ~says:"machine reports" "sampler switch markers"
          switch_markers probed.Mp.switches;
        expect found ~says:"aggregate says" "mp window retired sum"
          (windows_retired windows) probed.Mp.aggregate.Stats.retired_instrs;
        if not (Mp.conserves fast) then
          fail found
            "per-process + system counters do not sum to the mp aggregate")

(* ------------------------------------------------------------------ *)
(* Static-analysis cross-checks (PR 4): a generator that emits an
   ill-formed binary is itself a bug, and the abstract must/may
   classification must agree with the simulated probe stream on every
   program the fuzzer produces. *)

let finding_text = Format.asprintf "%a" Wp_lint.Finding.pp
let errors findings = List.map finding_text (Wp_lint.Finding.errors findings)
let check_lint layout p = errors (Wp_lint.Wf_lint.check (graph p) layout)

let check_soundness layout p grid =
  (Wp_lint.Soundness.check ~geometry:grid.geometry
     ~program:p.prepared.Runner.program ~layout ~trace:(trace p) ())
    .Wp_lint.Soundness.violations

let check_contract p grid =
  errors
    (Wp_lint.Contract.check (graph p) p.prepared.Runner.placed_layout
       {
         Wp_lint.Contract.geometry = grid.geometry;
         page_bytes = 1024;
         area_bytes = 2048;
         code_base = Wp_sim.Simulator.code_base;
       })

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

let check_reserved p _ =
  let kernel = kernel () in
  List.map finding_text
    (Wp_lint.Contract.check_reserved
       kernel.Wp_mp.Kernel.program.Wp_workloads.Codegen.graph
       kernel.Wp_mp.Kernel.layout ~kernel_base:Wp_mp.Kernel.base
       ~kernel_area_bytes:kernel.Wp_mp.Kernel.area_bytes ~role:`Kernel
    @ Wp_lint.Contract.check_reserved (graph p) p.prepared.Runner.placed_layout
        ~kernel_base:Wp_mp.Kernel.base
        ~kernel_area_bytes:kernel.Wp_mp.Kernel.area_bytes ~role:`User)

(* The static placement advisor's laws (region bounds, PL001
   reproduction, schedule inside the energy envelope) on the placed
   layout.  Failure strings name the offending region so shrunk differ
   reports stay actionable. *)
let check_advise p grid =
  Wp_advise.Laws.check ~where:"placed" ~geometry:grid.geometry ~page_bytes:1024
    ~area_bytes:2048 ~program:p.prepared.Runner.program
    ~profile:p.prepared.Runner.profile_small ~trace:(trace p)
    ~layout:p.prepared.Runner.placed_layout ()

(* ------------------------------------------------------------------ *)
(* The law table, and the one fold that runs it. *)

type check =
  | Per_spec of (program -> string list)
  | Per_geometry of (program -> grid -> string list)
  | Per_cell of (program -> cell -> string list)

type law = {
  name : string;
  applies : first_geometry:bool -> label:string -> bool;
  check : check;
}

let always ~first_geometry:_ ~label:_ = true
let first_geometry_only ~first_geometry ~label:_ = first_geometry

let first_baseline_or_wayplace ~first_geometry ~label =
  first_geometry && (label = "baseline" || label = "wayplace")

let laws =
  let spec name f = { name; applies = always; check = Per_spec f } in
  let geometry ?(applies = always) name f =
    { name; applies; check = Per_geometry f }
  in
  let cell ?(applies = always) name f = { name; applies; check = Per_cell f } in
  [
    spec "lint-original" (fun p ->
        check_lint p.prepared.Runner.original_layout p);
    spec "lint-placed" (fun p -> check_lint p.prepared.Runner.placed_layout p);
    cell "counters" check_counters;
    cell "fastpath" check_fastpath;
    cell "baseline-energy" (baseline_only check_baseline_energy);
    cell "oracle" (baseline_only check_oracle);
    (* a probed rerun doubles the cell's cost: first geometry only *)
    cell "probe" ~applies:first_geometry_only check_probe;
    cell "windows" ~applies:first_geometry_only (fun p c ->
        check_windows ~stats:c.stats p c.config);
    cell "windows-tight" ~applies:first_baseline_or_wayplace (fun p c ->
        check_windows p (tight_latencies c.config));
    (* the mp identity oracle runs both mp paths; the full time-sliced
       agreement costs four more mp runs: baseline and wayplace only *)
    cell "mp-identity" ~applies:first_geometry_only check_mp_identity;
    cell "mp-mix" ~applies:first_baseline_or_wayplace check_mp_mix;
    geometry "cross" check_cross;
    (* static-vs-dynamic: the must/may classification against the probe
       stream on the original layout, and on the placed layout (plus the
       placement contract) for the first geometry *)
    geometry "soundness" (fun p ->
        check_soundness p.prepared.Runner.original_layout p);
    geometry "soundness-placed" ~applies:first_geometry_only
      (fun p -> check_soundness p.prepared.Runner.placed_layout p);
    geometry "contract" ~applies:first_geometry_only check_contract;
    geometry "reserved" ~applies:first_geometry_only check_reserved;
    geometry "advise" ~applies:first_geometry_only check_advise;
  ]

let raised law where exn : violation =
  { law; message = where ^ ": raised: " ^ Printexc.to_string exn }

(* The only place an exception from a check is caught. *)
let run_check law ~where f =
  match f () with
  | messages ->
      List.map
        (fun m : violation -> { law = law.name; message = where ^ ": " ^ m })
        messages
  | exception exn -> [ raised law.name where exn ]

let check_spec ?(geometries = default_geometries) ?law spec =
  let selected name = Option.fold ~none:true ~some:(String.equal name) law in
  let laws = List.filter (fun l -> selected l.name) laws in
  match Runner.prepare spec with
  | exception exn -> [ raised "prepare" spec.Spec.name exn ]
  | prepared ->
      let p = { spec; prepared } in
      let spec_violations =
        List.concat_map
          (fun l ->
            match l.check with
            | Per_spec f -> run_check l ~where:spec.Spec.name (fun () -> f p)
            | Per_geometry _ | Per_cell _ -> [])
          laws
      in
      let geometry_violations i geometry =
        let first_geometry = i = 0 and gname = Geometry.to_string geometry in
        (* a cell runs when a selected law needs it *)
        let cells =
          List.map
            (fun (label, config) ->
              (label, config, lazy (Runner.run_scheme prepared config)))
            (configs_for ~ablations:first_geometry geometry)
        in
        let cell_violations (label, config, stats) =
          let where = Printf.sprintf "%s @ %s" label gname in
          let checks =
            List.filter_map
              (fun l ->
                match l.check with
                | Per_cell f when l.applies ~first_geometry ~label ->
                    Some (l, f)
                | Per_cell _ | Per_spec _ | Per_geometry _ -> None)
              laws
          in
          if List.is_empty checks && not (selected "run") then []
          else
            match Lazy.force stats with
            | exception exn -> [ raised "run" where exn ]
            | stats ->
                List.concat_map
                  (fun (l, f) ->
                    run_check l ~where (fun () -> f p { label; config; stats }))
                  checks
        in
        let by_cell = List.concat_map cell_violations cells in
        let grid =
          {
            geometry;
            results =
              lazy
                (List.filter_map
                   (fun (label, _, stats) ->
                     match Lazy.force stats with
                     | s -> Some (label, s)
                     | exception _ -> None)
                   cells);
          }
        in
        by_cell
        @ List.concat_map
            (fun l ->
              match l.check with
              | Per_geometry f when l.applies ~first_geometry ~label:"" ->
                  run_check l ~where:gname (fun () -> f p grid)
              | Per_geometry _ | Per_spec _ | Per_cell _ -> [])
            laws
      in
      spec_violations @ List.concat (List.mapi geometry_violations geometries)

let check_seed ?geometries seed = check_spec ?geometries (Progen.spec_of_seed seed)

let run_seed ?(check = fun ?law spec -> check_spec ?law spec) seed =
  let spec = Progen.spec_of_seed seed in
  match check spec with
  | [] -> None
  | ({ law; _ } : violation) :: _ as violations ->
      let on_law s =
        List.filter (fun (v : violation) -> v.law = law) (check ~law s)
      in
      let shrunk = Progen.minimize ~failing:(fun s -> on_law s <> []) spec in
      Some
        {
          seed;
          law;
          spec;
          violations;
          shrunk;
          shrunk_violations = on_law shrunk;
        }

let fuzz ?workers ?progress ~seed ~count () =
  let workers =
    match workers with Some w -> w | None -> Sweep.default_workers ()
  in
  let seeds = List.init count (fun i -> seed + i) in
  List.filter_map Fun.id (Sweep.Pool.map ~workers ?progress run_seed seeds)

let pp_violations ppf = function
  | [] -> Format.fprintf ppf "  (none)@,"
  | vs -> List.iter (Format.fprintf ppf "  - %a@," pp_violation) vs

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fuzz failure at seed %d, law %s (reproduce: wayplace_cli fuzz \
     --seed %d --count 1)@,original program: %a@,violations (%d):@,%a\
     shrunk program: %a@,violations of %s on shrunk program (%d):@,%a@]"
    r.seed r.law r.seed Spec.pp r.spec
    (List.length r.violations)
    pp_violations r.violations Spec.pp r.shrunk r.law
    (List.length r.shrunk_violations)
    pp_violations r.shrunk_violations
