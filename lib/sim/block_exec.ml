type trace = {
  blocks : int array;
  info : Compiled_trace.block_info array;
  plan : Compiled_trace.plan;
  starts : int array;
  bodies : Wp_isa.Instr.t array array;
  taken_succs : int array;
  token : int;
  data : Data_stream.t;
  stats : Stats.t;
  cycles : int ref;
  instrs : int ref;
}

let trace (config : Config.t) ~stats (tr : Wp_workloads.Tracer.trace)
    compiled =
  let spec = (Compiled_trace.program compiled).Wp_workloads.Codegen.spec in
  {
    blocks = tr.Wp_workloads.Tracer.blocks;
    info = Compiled_trace.info compiled;
    plan =
      Compiled_trace.plan compiled
        ~line_bytes:config.icache.Wp_cache.Geometry.line_bytes;
    starts = Compiled_trace.starts compiled;
    bodies = Compiled_trace.bodies compiled;
    taken_succs = Compiled_trace.taken_succs compiled;
    token = Compiled_trace.token compiled;
    data = Data_stream.create ~seed:(spec.Wp_workloads.Spec.seed lxor 0xDA7A);
    stats;
    cycles = ref 0;
    instrs = ref 0;
  }

let settle t =
  t.stats.Stats.cycles <- !(t.cycles);
  t.stats.Stats.retired_instrs <- !(t.instrs)

type machine = {
  engine : Fetch_engine.t;
  dmem : Dmem.t;
  btb : Wp_pipeline.Btb.t;
  mispredict_penalty : int;
}

let machine ?probe ?sampler ~code_base (config : Config.t) =
  let engine = Fetch_engine.create ?probe ?sampler config ~code_base in
  {
    engine;
    dmem = Dmem.create ?probe ?sampler config;
    btb = Wp_pipeline.Btb.create ~entries:config.btb_entries;
    mispredict_penalty = config.mispredict_penalty;
  }

let core ?probe m =
  Wp_pipeline.Core_model.create ~btb:m.btb
    ~mispredict_penalty:m.mispredict_penalty ?probe ()

(* Block-batched: same-line runs fetched in one [Fetch_engine.fetch_run]
   call each, memory ops replayed afterwards in program order, cycles
   accumulated from the plan's pre-summed execute latencies.  Safe
   reorderings only: the fetch and data engines share no state, and the
   one energy bucket both touch (memory) only ever receives the single
   constant [memory_access_pj], so moving a run's fetch charges ahead of
   its data charges leaves every bucket's accumulation bit-identical.
   Branches exist only as block terminators (Basic_block validates
   this), so the predictor runs once per block. *)
let exec m t k ~limit =
  let blocks = t.blocks in
  let id = blocks.(k) in
  let b = t.info.(id) in
  let pb = t.plan.(id) in
  let runs = pb.Compiled_trace.runs in
  let run_cycles = pb.Compiled_trace.run_cycles in
  let mem = b.Compiled_trace.mem in
  let n_mem = Array.length mem in
  let engine = m.engine and dmem = m.dmem in
  let stats = t.stats and data = t.data in
  let cycles = ref 0 in
  let pc = ref b.Compiled_trace.start in
  let off = ref 0 in
  let mi = ref 0 in
  let nruns = Array.length runs in
  let last = if limit < nruns then limit else nruns in
  for r = 0 to last - 1 do
    let len = runs.(r) in
    let fetch_stall = Fetch_engine.fetch_run engine stats !pc ~n:len in
    cycles := !cycles + run_cycles.(r) + fetch_stall;
    let run_end = !off + len in
    while !mi < n_mem && mem.(!mi).Compiled_trace.pos < run_end do
      let op = mem.(!mi) in
      cycles :=
        !cycles
        + Dmem.access dmem stats
            (Data_stream.next data op.Compiled_trace.locality)
            ~write:op.Compiled_trace.write;
      incr mi
    done;
    off := run_end;
    pc := !pc + (len * Wp_isa.Instr.size_bytes)
  done;
  if b.Compiled_trace.term_branch && last = nruns then begin
    let term_pc = b.Compiled_trace.term_pc in
    let taken =
      k + 1 < Array.length blocks
      && blocks.(k + 1) = b.Compiled_trace.taken_succ
    in
    let predicted = Wp_pipeline.Btb.predict_taken m.btb term_pc in
    Wp_pipeline.Btb.update m.btb term_pc ~taken;
    if predicted <> taken then cycles := !cycles + m.mispredict_penalty
  end;
  t.cycles := !(t.cycles) + !cycles;
  t.instrs := !(t.instrs) + !off

(* One instruction at a time through the core model: fetch, data
   access, retire.  This is the definition of the machine's behaviour;
   [exec] must reproduce its Stats bit-for-bit. *)
let step m t core k ~from =
  let blocks = t.blocks in
  let nblocks = Array.length blocks in
  let id = blocks.(k) in
  let start = t.starts.(id) in
  let body = t.bodies.(id) in
  let nb = Array.length body in
  let c0 = Wp_pipeline.Core_model.cycles core in
  for i = from to nb - 1 do
    let pc = start + (i * Wp_isa.Instr.size_bytes) in
    let fetch_stall = Fetch_engine.fetch m.engine t.stats pc in
    let instr = body.(i) in
    let opcode = instr.Wp_isa.Instr.opcode in
    let dmem_stall =
      match opcode with
      | Wp_isa.Opcode.Load ->
          Dmem.access m.dmem t.stats
            (Data_stream.next t.data instr.Wp_isa.Instr.locality)
            ~write:false
      | Wp_isa.Opcode.Store ->
          Dmem.access m.dmem t.stats
            (Data_stream.next t.data instr.Wp_isa.Instr.locality)
            ~write:true
      | Wp_isa.Opcode.Alu _ | Mac | Branch | Jump | Call | Return | Nop -> 0
    in
    let taken =
      match opcode with
      | Wp_isa.Opcode.Branch ->
          i = nb - 1 && k + 1 < nblocks && blocks.(k + 1) = t.taken_succs.(id)
      | Wp_isa.Opcode.Jump | Call | Return | Alu _ | Mac | Load | Store | Nop ->
          false
    in
    Wp_pipeline.Core_model.retire core ~pc ~opcode ~fetch_stall ~dmem_stall
      ~taken
  done;
  t.cycles := !(t.cycles) + (Wp_pipeline.Core_model.cycles core - c0);
  t.instrs := !(t.instrs) + (nb - from)

let ff_ctx m t ~config ~policy ~report ~cache ~cycle_headroom =
  let info = t.info and blocks = t.blocks in
  {
    Steady_state.policy;
    report;
    stats = t.stats;
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
        Data_stream.advance_invariant ~seq_bytes:!seq ~stride_bytes:!stride
          ~n_random:!rand);
    fingerprint =
      (fun ~start ~period ~add ->
        (* The drowsy clock is the fetch counter of the stats being
           charged — [t.stats] for as long as this trace runs. *)
        Fetch_engine.fingerprint m.engine ~now:t.stats.Stats.fetches ~add;
        (* A pattern with no memory operations at all never calls into
           the data side: its state is neither read nor written across
           the region, so it cannot distinguish boundaries — leave it
           out of the snapshot (the dominant cost for pure-compute
           loops). *)
        let period_mem = ref 0 in
        for j = start to start + period - 1 do
          period_mem :=
            !period_mem + Array.length info.(blocks.(j)).Compiled_trace.mem
        done;
        if !period_mem > 0 then begin
          Dmem.fingerprint m.dmem ~add;
          Data_stream.fingerprint t.data ~add
        end;
        Wp_pipeline.Btb.fingerprint m.btb ~add);
    exec = (fun k -> exec m t k ~limit:max_int);
    set_awake_recorder = Fetch_engine.set_drowsy_recorder m.engine;
    drowsy_advance =
      (fun ~since ~delta ->
        Fetch_engine.drowsy_advance_touched m.engine ~since ~delta);
    drowsy_replay =
      (fun a ~len ~iters ->
        Fetch_engine.drowsy_replay_awake m.engine a ~len ~iters);
    cycles = t.cycles;
    instrs = t.instrs;
    cache;
    (* The scope pins the world an entry was recorded in: the compiled
       trace's identity and the whole configuration (energy parameters
       and latencies are deliberately not fingerprinted — they are
       constants of a run, so they must be constants of the key).
       Computed only when a cache is actually attached. *)
    cache_scope =
      (match cache with
      | None -> ""
      | Some _ -> Printf.sprintf "%d/%s" t.token (Config.digest config));
    cycle_headroom;
  }
