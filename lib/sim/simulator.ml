let code_base = 0x0001_0000

(* Fast-forward is on by default: it is bit-identical to full replay
   (the differ and fuzz corpus enforce this), so there is no
   fidelity-vs-speed trade.  The CLI's [--no-fastforward] escape hatch
   and the differential tests flip this; an [Atomic.t] because prepared
   benchmarks run from many domains. *)
let fastforward_default = Atomic.make true
let set_fastforward_default b = Atomic.set fastforward_default b
let default_fastforward () = Atomic.get fastforward_default

(* The OS resizing the way-placement area between trace blocks (paper
   Section 4.1): a cursor over the ascending schedule.  An entry applies
   before block [k] once [k >= due], one entry per block, and [due]
   makes the per-block test a single comparison.  Both loops resize
   through this, so they resize at the same points. *)
type resizes = {
  engine : Fetch_engine.t;
  mutable pending : (int * int) list;
  mutable due : int;
}

let next_due = function (at, _) :: _ -> at | [] -> max_int

let resizes engine schedule =
  { engine; pending = schedule; due = next_due schedule }

let apply_resize r =
  match r.pending with
  | (_, area_bytes) :: rest ->
      Fetch_engine.resize_area r.engine ~area_bytes;
      r.pending <- rest;
      r.due <- next_due rest
  | [] -> ()

(* The per-instruction reference loop: every block stepped.  Any probe
   runs here, seeing one event per access. *)
let run_reference_loop ~probe ~schedule (m : Block_exec.machine)
    (t : Block_exec.trace) =
  let core = Block_exec.core ?probe m in
  let resizes = resizes m.engine schedule in
  for k = 0 to Array.length t.blocks - 1 do
    if k >= resizes.due then apply_resize resizes;
    Block_exec.step m t core k ~from:0
  done

(* The batched loop with no observer, fast-forwarding converged loops
   when given a context.  The pre-scan decides engagement up front: a
   patternless trace replays through the same bare loop as a run
   without fast-forward, so fast-forward costs it nothing. *)
let run_plain ~ff m (t : Block_exec.trace) =
  match Option.map Steady_state.make ff with
  | Some drv when Steady_state.engaged drv -> Steady_state.drive drv
  | Some _ | None ->
      for k = 0 to Array.length t.blocks - 1 do
        Block_exec.exec m t k ~limit:max_int
      done

(* The batched loop under a sampler and/or a resize schedule.  Window
   boundaries are breakpoints.  Each run of a block gets a static
   worst-case bound on its cycles: its execute cycles and worst fetch
   stall, its memory ops' D-TLB walk plus miss, and on the last run a
   terminating branch's mispredict penalty.  A block runs batched only
   while the running sum of its run bounds cannot reach the sampler's
   next boundary: then no retire inside could close a window.  The runs
   that could cross are stepped one instruction at a time through the
   reference body, on a core sharing the batched loop's BTB.  Batched
   runs need not report their retires one by one — only the cumulative
   clock matters, and only where it is read: before stepping, before a
   resize (its marker is stamped with the clock) and at the end.
   Resize points are block indices, applied before the block.  Batched
   and stepped ops alike charge the data side from the outcome log, in
   trace order, at the point a live access would. *)
let run_observed ~sampler ~schedule (m : Block_exec.machine)
    (t : Block_exec.trace) =
  let engine = m.engine and info = t.info and blocks = t.blocks in
  let cycles = t.cycles and instrs = t.instrs in
  let core =
    Block_exec.core ?probe:(Option.map Wp_obs.Sampler.probe sampler) m
  in
  let catch_up () =
    Wp_pipeline.Core_model.sync core ~cycles:!cycles ~instrs:!instrs
  in
  let resizes = resizes engine schedule in
  let dmem_bound = Dmem.stall_bound m.dmem in
  (* Per block id: worst-case cycles through the end of each run,
     leaving out the first run's head fetch, whose bound depends on
     where the previous block's last fetch was and is added at run
     time. *)
  let reach =
    Array.mapi
      (fun id (pb : Compiled_trace.plan_block) ->
        let b = info.(id) in
        let mem = b.Compiled_trace.mem in
        let last_run = Array.length pb.Compiled_trace.runs - 1 in
        let total = ref 0 and mi = ref 0 and off = ref 0 in
        let head = ref b.Compiled_trace.start and prev_head = ref (-1) in
        Array.mapi
          (fun r len ->
            let run_end = !off + len in
            while
              !mi < Array.length mem && mem.(!mi).Compiled_trace.pos < run_end
            do
              total := !total + dmem_bound;
              incr mi
            done;
            total :=
              !total + pb.Compiled_trace.run_cycles.(r)
              + (if r = 0 then 0
                 else
                   Fetch_engine.fetch_stall_bound engine ~prev:!prev_head !head)
              + ((len - 1) * Fetch_engine.same_line_stall_bound engine)
              + (if r = last_run && b.Compiled_trace.term_branch then
                   m.mispredict_penalty
                 else 0);
            off := run_end;
            prev_head := !head;
            head := !head + (len * Wp_isa.Instr.size_bytes);
            !total)
          pb.Compiled_trace.runs)
      t.plan
  in
  (* Only retires close windows, and only stepped instructions retire
     mid-stretch, so the boundary is re-read after stepping. *)
  let next_boundary () =
    match sampler with
    | Some s -> Wp_obs.Sampler.next_boundary s
    | None -> max_int
  in
  let boundary = ref (next_boundary ()) in
  for k = 0 to Array.length blocks - 1 do
    if k >= resizes.due then begin
      catch_up ();
      apply_resize resizes
    end;
    let id = blocks.(k) in
    let reach = reach.(id) in
    let room =
      !boundary - !cycles
      - Fetch_engine.fetch_stall_bound engine
          ~prev:(Fetch_engine.last_fetch engine)
          info.(id).Compiled_trace.start
    in
    let nruns = Array.length reach in
    if reach.(nruns - 1) < room then Block_exec.exec m t k ~limit:max_int
    else begin
      let safe = ref 0 in
      while reach.(!safe) < room do
        incr safe
      done;
      let i0 = !instrs in
      if !safe > 0 then Block_exec.exec m t k ~limit:!safe;
      catch_up ();
      Block_exec.step m t core k ~from:(!instrs - i0);
      boundary := next_boundary ()
    end
  done;
  catch_up ()

(* Rejects, before any work, a schedule [apply_resize] could not carry
   out to the letter: entries on a machine without a way-placement
   area, outside the trace, out of order or with a non-positive
   area. *)
let check_schedule (config : Config.t) ~nblocks schedule =
  let reject fmt =
    Printf.ksprintf (fun msg -> invalid_arg ("Simulator.run: " ^ msg)) fmt
  in
  (match config.scheme with
  | Config.Way_placement _ -> ()
  | Config.Baseline | Config.Way_memoization | Config.Way_prediction
  | Config.Filter_cache _ ->
      if schedule <> [] then
        reject "a resize schedule needs a way-placement config, not %s"
          (Config.scheme_name config.scheme));
  ignore
    (List.fold_left
       (fun prev (at, area_bytes) ->
         if at < 0 || at >= nblocks then
           reject "resize at block %d lies outside the %d-block trace" at
             nblocks;
         if at <= prev then reject "resize schedule must be ascending";
         if area_bytes <= 0 then
           reject "resize area %d at block %d must be positive" area_bytes at;
         at)
       (-1) schedule)

let run_compiled ?probe ?sampler ?(schedule = []) ?(reference_only = false)
    ?fastforward ?(ff_policy = Steady_state.default_policy) ?ff_report
    ?snapshot_cache ~(config : Config.t) ~(trace : Wp_workloads.Tracer.trace)
    compiled =
  check_schedule config ~nblocks:(Array.length trace.Wp_workloads.Tracer.blocks)
    schedule;
  (* What the per-instruction core reports retires to; raises if both a
     probe and a sampler are given. *)
  let observer = Wp_obs.Sink.probe (Wp_obs.Sink.make ?probe ?sampler ()) in
  let stats = Stats.create () in
  (match sampler with
  | Some _ -> Wp_energy.Account.set_sampler stats.Stats.account sampler
  | None -> Wp_energy.Account.set_probe stats.Stats.account probe);
  let m = Block_exec.machine ?probe ?sampler ~code_base config in
  let t = Block_exec.trace config ~stats trace compiled in
  (match (probe, sampler, schedule, reference_only) with
  | None, None, [], false ->
      (* Fast-forward only ever engages here, so its bail-out conditions
         are structural.  Either way the data side replays from the
         trace's outcome log. *)
      Block_exec.replay_data config t;
      let ff_enabled =
        match fastforward with
        | Some b -> b
        | None -> Atomic.get fastforward_default
      in
      let ff =
        if not ff_enabled then None
        else
          let report =
            match ff_report with
            | Some r -> r
            | None -> Steady_state.create_report ()
          in
          Some
            (Block_exec.ff_ctx m t ~config ~policy:ff_policy ~report
               ~cache:snapshot_cache ~cycle_headroom:None)
      in
      run_plain ~ff m t
  | None, _, _, false ->
      (* A sampler or a resize schedule: the batched loop, with window
         boundaries and resize points as breakpoints. *)
      Block_exec.replay_data config t;
      run_observed ~sampler ~schedule m t
  | Some _, _, _, _ | None, _, _, true ->
      (* A general probe sees one event per access, so it needs the
         per-instruction loop; so does an explicit reference run. *)
      run_reference_loop ~probe:observer ~schedule m t);
  Block_exec.settle t;
  Fetch_engine.finalize m.engine stats ~cycles:stats.Stats.cycles;
  Wp_energy.Account.add_core stats.Stats.account
    (config.energy.Wp_energy.Params.core_rest_pj_per_cycle
    *. float_of_int stats.Stats.cycles);
  (* The stats outlive this run; don't let them keep emitting into a
     sampler that considers the run finished. *)
  Wp_energy.Account.set_probe stats.Stats.account None;
  stats

let run_probed ~probe ~schedule ~config ~program ~layout ~trace =
  run_compiled ~probe ~schedule ~config ~trace
    (Compiled_trace.make ~program ~layout)

let run_with_resizes ~schedule ~config ~program ~layout ~trace =
  run_compiled ~schedule ~config ~trace (Compiled_trace.make ~program ~layout)

let run_reference ~config ~program ~layout ~trace =
  run_compiled ~reference_only:true ~config ~trace
    (Compiled_trace.make ~program ~layout)

let run ~config ~program ~layout ~trace =
  run_compiled ~config ~trace (Compiled_trace.make ~program ~layout)
