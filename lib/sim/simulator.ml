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

(* One trace block, one instruction at a time through the core model:
   fetch, data access, retire — from instruction [from] on.  This is
   the definition of the machine's behaviour.  The reference loop is
   this over every whole block; the sampled fast path steps through it
   the part of a block that could cross a window boundary.  The batched
   loop below must reproduce its Stats bit-for-bit. *)
let stepper ~compiled ~(trace : Wp_workloads.Tracer.trace) ~(stats : Stats.t)
    ~engine ~dmem ~data ~core =
  let starts = Compiled_trace.starts compiled in
  let bodies = Compiled_trace.bodies compiled in
  let taken_succs = Compiled_trace.taken_succs compiled in
  let blocks = trace.Wp_workloads.Tracer.blocks in
  let nblocks = Array.length blocks in
  fun k ~from ->
    let id = blocks.(k) in
    let start = starts.(id) in
    let body = bodies.(id) in
    let nb = Array.length body in
    for i = from to nb - 1 do
      let pc = start + (i * Wp_isa.Instr.size_bytes) in
      let fetch_stall = Fetch_engine.fetch engine stats pc in
      let instr = body.(i) in
      let opcode = instr.Wp_isa.Instr.opcode in
      let dmem_stall =
        match opcode with
        | Wp_isa.Opcode.Load ->
            Dmem.access dmem stats (Data_stream.next data instr.Wp_isa.Instr.locality)
              ~write:false
        | Wp_isa.Opcode.Store ->
            Dmem.access dmem stats (Data_stream.next data instr.Wp_isa.Instr.locality)
              ~write:true
        | Wp_isa.Opcode.Alu _ | Mac | Branch | Jump | Call | Return | Nop -> 0
      in
      let taken =
        match opcode with
        | Wp_isa.Opcode.Branch ->
            i = nb - 1 && k + 1 < nblocks && blocks.(k + 1) = taken_succs.(id)
        | Wp_isa.Opcode.Jump | Call | Return | Alu _ | Mac | Load | Store | Nop
          ->
            false
      in
      Wp_pipeline.Core_model.retire core ~pc ~opcode ~fetch_stall ~dmem_stall
        ~taken
    done

(* The per-instruction reference loop: every block stepped.  Any probe
   runs here, seeing one event per access. *)
let run_reference_loop ~probe ~resize_schedule ~(config : Config.t) ~compiled
    ~(trace : Wp_workloads.Tracer.trace) ~(stats : Stats.t) ~engine ~dmem ~data
    =
  let core =
    Wp_pipeline.Core_model.create ~btb_entries:config.btb_entries
      ~mispredict_penalty:config.mispredict_penalty ?probe ()
  in
  let step_block = stepper ~compiled ~trace ~stats ~engine ~dmem ~data ~core in
  let resizes = resizes engine resize_schedule in
  for k = 0 to Array.length trace.Wp_workloads.Tracer.blocks - 1 do
    if k >= resizes.due then apply_resize resizes;
    step_block k ~from:0
  done;
  stats.Stats.cycles <- Wp_pipeline.Core_model.cycles core;
  Fetch_engine.finalize engine stats ~cycles:stats.Stats.cycles;
  stats.Stats.retired_instrs <- Wp_pipeline.Core_model.instructions core

(* What the batched loop runs under: nothing watching (with optional
   fast-forward), or a sampler and/or a resize schedule. *)
type fast_mode =
  | Plain of
      (Steady_state.policy * Steady_state.report * Snapshot_cache.t option)
      option
  | Observed of {
      sampler : Wp_obs.Sampler.t option;
      schedule : (int * int) list;
    }

(* The block-batched fast path: same-line runs fetched in one
   [Fetch_engine.fetch_run] call each, memory ops replayed afterwards in
   program order, cycles accumulated from the plan's pre-summed execute
   latencies.  Safe reorderings only: the fetch and data engines share
   no state, and the one energy bucket both touch (memory) only ever
   receives the single constant [memory_access_pj], so moving a run's
   fetch charges ahead of its data charges leaves every bucket's
   accumulation bit-identical.  Branches exist only as block terminators
   (Basic_block validates this), so the predictor runs once per block. *)
let run_fast ~(config : Config.t) ~compiled
    ~(trace : Wp_workloads.Tracer.trace) ~(stats : Stats.t) ~engine ~dmem ~data
    ~mode =
  let info = Compiled_trace.info compiled in
  let plan =
    Compiled_trace.plan compiled ~line_bytes:config.icache.Wp_cache.Geometry.line_bytes
  in
  let btb = Wp_pipeline.Btb.create ~entries:config.btb_entries in
  let mispredict_penalty = config.mispredict_penalty in
  let blocks = trace.Wp_workloads.Tracer.blocks in
  let nblocks = Array.length blocks in
  let cycles = ref 0 in
  let instrs = ref 0 in
  (* How many of the next block's runs to batch: all of them, except
     when the sampled loop batches a block's leading runs only. *)
  let run_limit = ref max_int in
  (* One trace position: the unit both the plain loop and the
     fast-forward driver execute. *)
  let exec_block k =
    let id = blocks.(k) in
    let b = info.(id) in
    let pb = plan.(id) in
    let runs = pb.Compiled_trace.runs in
    let run_cycles = pb.Compiled_trace.run_cycles in
    let mem = b.Compiled_trace.mem in
    let n_mem = Array.length mem in
    let pc = ref b.Compiled_trace.start in
    let off = ref 0 in
    let mi = ref 0 in
    let nruns = Array.length runs in
    let last = if !run_limit < nruns then !run_limit else nruns in
    for r = 0 to last - 1 do
      let len = runs.(r) in
      let fetch_stall = Fetch_engine.fetch_run engine stats !pc ~n:len in
      cycles := !cycles + run_cycles.(r) + fetch_stall;
      let run_end = !off + len in
      while !mi < n_mem && mem.(!mi).Compiled_trace.pos < run_end do
        let m = mem.(!mi) in
        cycles :=
          !cycles
          + Dmem.access dmem stats
              (Data_stream.next data m.Compiled_trace.locality)
              ~write:m.Compiled_trace.write;
        incr mi
      done;
      off := run_end;
      pc := !pc + (len * Wp_isa.Instr.size_bytes)
    done;
    instrs := !instrs + !off;
    if b.Compiled_trace.term_branch && last = nruns then begin
      let taken =
        k + 1 < nblocks && blocks.(k + 1) = b.Compiled_trace.taken_succ
      in
      let predicted =
        Wp_pipeline.Btb.predict_taken btb b.Compiled_trace.term_pc
      in
      Wp_pipeline.Btb.update btb b.Compiled_trace.term_pc ~taken;
      if predicted <> taken then cycles := !cycles + mispredict_penalty
    end
  in
  (match mode with
  | Plain None ->
      for k = 0 to nblocks - 1 do
        exec_block k
      done
  | Observed { sampler; schedule } ->
      (* Window boundaries are breakpoints.  Each run of a block gets a
         static worst-case bound on its cycles: its execute cycles and
         worst fetch stall, its memory ops' D-TLB walk plus miss, and on
         the last run a terminating branch's mispredict penalty.  A block
         runs batched only while the running sum of its run bounds
         cannot reach the sampler's next boundary: then no retire inside
         could close a window.  The runs that could cross are stepped
         one instruction at a time through the reference body, on a
         core sharing this loop's BTB.  Batched runs need not report
         their retires one by one — only the cumulative clock matters,
         and only where it is read: before stepping, before a resize
         (its marker is stamped with the clock) and at the end.  Resize
         points are block indices, applied before the block. *)
      let probe = Option.map Wp_obs.Sampler.probe sampler in
      let core =
        Wp_pipeline.Core_model.create ~btb ~mispredict_penalty ?probe ()
      in
      let step_block =
        stepper ~compiled ~trace ~stats ~engine ~dmem ~data ~core
      in
      let catch_up () =
        Wp_pipeline.Core_model.sync core ~cycles:!cycles ~instrs:!instrs
      in
      let resizes = resizes engine schedule in
      let dmem_bound = Dmem.stall_bound dmem in
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
                  !mi < Array.length mem
                  && mem.(!mi).Compiled_trace.pos < run_end
                do
                  total := !total + dmem_bound;
                  incr mi
                done;
                total :=
                  !total + pb.Compiled_trace.run_cycles.(r)
                  + (if r = 0 then 0
                     else
                       Fetch_engine.fetch_stall_bound engine ~prev:!prev_head
                         !head)
                  + ((len - 1) * Fetch_engine.same_line_stall_bound engine)
                  + (if r = last_run && b.Compiled_trace.term_branch then
                       mispredict_penalty
                     else 0);
                off := run_end;
                prev_head := !head;
                head := !head + (len * Wp_isa.Instr.size_bytes);
                !total)
              pb.Compiled_trace.runs)
          plan
      in
      (* Only retires close windows, and only stepped instructions
         retire mid-stretch, so the boundary is re-read after
         stepping. *)
      let next_boundary () =
        match sampler with
        | Some s -> Wp_obs.Sampler.next_boundary s
        | None -> max_int
      in
      let boundary = ref (next_boundary ()) in
      for k = 0 to nblocks - 1 do
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
        if reach.(nruns - 1) < room then exec_block k
        else begin
          let safe = ref 0 in
          while reach.(!safe) < room do
            incr safe
          done;
          let i0 = !instrs in
          if !safe > 0 then begin
            run_limit := !safe;
            exec_block k;
            run_limit := max_int
          end;
          catch_up ();
          step_block k ~from:(!instrs - i0);
          cycles := Wp_pipeline.Core_model.cycles core;
          instrs := Wp_pipeline.Core_model.instructions core;
          boundary := next_boundary ()
        end
      done;
      catch_up ()
  | Plain (Some (policy, report, cache)) ->
      (* The cache scope pins the world an entry was recorded in: the
         compiled trace's identity and the whole configuration (energy
         parameters and latencies are deliberately not fingerprinted —
         they are constants of a run, so they must be constants of the
         key).  Computed only when a cache is actually attached. *)
      let cache_scope =
        match cache with
        | None -> ""
        | Some _ ->
            Printf.sprintf "%d/%s" (Compiled_trace.token compiled)
              (Digest.string (Marshal.to_string config [ Marshal.No_sharing ]))
      in
      let ctx =
        {
          Steady_state.policy;
          report;
          stats;
          blocks;
          n_ids = Array.length info;
          n_instrs_of = (fun id -> info.(id).Compiled_trace.n_instrs);
          stream_invariant =
            (fun ~start ~period ->
              let seq = ref 0 and stride = ref 0 and rand = ref 0 in
              for j = start to start + period - 1 do
                let b = info.(blocks.(j)) in
                seq := !seq + b.Compiled_trace.seq_bytes;
                stride := !stride + b.Compiled_trace.stride_bytes;
                rand := !rand + b.Compiled_trace.n_random
              done;
              Data_stream.advance_invariant ~seq_bytes:!seq
                ~stride_bytes:!stride ~n_random:!rand);
          fingerprint =
            (fun ~start ~period ~add ->
              Fetch_engine.fingerprint engine ~now:stats.Stats.fetches ~add;
              (* A pattern with no memory operations at all never calls
                 into the data side: its state is neither read nor
                 written across the region, so it cannot distinguish
                 boundaries — leave it out of the snapshot (the
                 dominant cost for pure-compute loops). *)
              let period_mem = ref 0 in
              for j = start to start + period - 1 do
                period_mem :=
                  !period_mem
                  + Array.length info.(blocks.(j)).Compiled_trace.mem
              done;
              if !period_mem > 0 then begin
                Dmem.fingerprint dmem ~add;
                Data_stream.fingerprint data ~add
              end;
              Wp_pipeline.Btb.fingerprint btb ~add);
          exec = exec_block;
          set_awake_recorder = Fetch_engine.set_drowsy_recorder engine;
          drowsy_advance =
            (fun ~since ~delta ->
              Fetch_engine.drowsy_advance_touched engine ~since ~delta);
          drowsy_replay =
            (fun a ~len ~iters ->
              Fetch_engine.drowsy_replay_awake engine a ~len ~iters);
          cycles;
          instrs;
          cache;
          cache_scope;
          cycle_headroom = None;
        }
      in
      (* The pre-scan decides engagement up front: a patternless trace
         replays through the same bare loop as the no-FF path, so
         fast-forward costs it nothing. *)
      let drv = Steady_state.make ctx in
      if Steady_state.engaged drv then Steady_state.drive drv
      else
        for k = 0 to nblocks - 1 do
          exec_block k
        done);
  stats.Stats.cycles <- !cycles;
  Fetch_engine.finalize engine stats ~cycles:!cycles;
  stats.Stats.retired_instrs <- !instrs

let run_compiled ?probe ?sampler ?(schedule = []) ?(reference_only = false)
    ?fastforward ?(ff_policy = Steady_state.default_policy) ?ff_report
    ?snapshot_cache ~(config : Config.t) ~(trace : Wp_workloads.Tracer.trace)
    compiled =
  let resize_schedule = schedule in
  (let rec ascending = function
     | (a, _) :: ((b, _) :: _ as rest) ->
         if b <= a then
           invalid_arg "Simulator.run: resize schedule must be ascending"
         else ascending rest
     | [ _ ] | [] -> ()
   in
   ascending resize_schedule);
  (* What the per-instruction core reports retires to; raises if both a
     probe and a sampler are given. *)
  let observer = Wp_obs.Sink.probe (Wp_obs.Sink.make ?probe ?sampler ()) in
  let program = Compiled_trace.program compiled in
  let stats = Stats.create () in
  (match sampler with
  | Some _ -> Wp_energy.Account.set_sampler stats.Stats.account sampler
  | None -> Wp_energy.Account.set_probe stats.Stats.account probe);
  let engine = Fetch_engine.create ?probe ?sampler config ~code_base in
  let dmem = Dmem.create ?probe ?sampler config in
  let data =
    Data_stream.create ~seed:(program.Wp_workloads.Codegen.spec.Wp_workloads.Spec.seed lxor 0xDA7A)
  in
  (match (probe, sampler, resize_schedule, reference_only) with
  | None, None, [], false ->
      (* Fast-forward only ever engages here, so its bail-out conditions
         are structural. *)
      let ff_enabled =
        match fastforward with
        | Some b -> b
        | None -> Atomic.get fastforward_default
      in
      let ff =
        if not ff_enabled then None
        else
          Some
            ( ff_policy,
              (match ff_report with
              | Some r -> r
              | None -> Steady_state.create_report ()),
              snapshot_cache )
      in
      run_fast ~config ~compiled ~trace ~stats ~engine ~dmem ~data
        ~mode:(Plain ff)
  | None, _, _, false ->
      (* A sampler or a resize schedule: the batched loop, with window
         boundaries and resize points as breakpoints. *)
      run_fast ~config ~compiled ~trace ~stats ~engine ~dmem ~data
        ~mode:(Observed { sampler; schedule = resize_schedule })
  | Some _, _, _, _ | None, _, _, true ->
      (* A general probe sees one event per access, so it needs the
         per-instruction loop; so does an explicit reference run. *)
      run_reference_loop ~probe:observer ~resize_schedule ~config ~compiled
        ~trace ~stats ~engine ~dmem ~data);
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
