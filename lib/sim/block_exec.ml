type trace = {
  blocks : int array;
  info : Compiled_trace.block_info array;
  plan : Compiled_trace.plan;
  starts : int array;
  bodies : Wp_isa.Instr.t array array;
  taken_succs : int array;
  token : int;
  data_seed : int;
  data : Data_stream.t;
  mutable outcomes : Bytes.t option;
  mutable next_op : int;
  stats : Stats.t;
  cycles : int ref;
  instrs : int ref;
}

let trace (config : Config.t) ~stats (tr : Wp_workloads.Tracer.trace)
    compiled =
  let spec = (Compiled_trace.program compiled).Wp_workloads.Codegen.spec in
  let data_seed = spec.Wp_workloads.Spec.seed lxor 0xDA7A in
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
    data_seed;
    data = Data_stream.create ~seed:data_seed;
    outcomes = None;
    next_op = 0;
    stats;
    cycles = ref 0;
    instrs = ref 0;
  }

(* The outcome log: one {!Dmem.lookup} result per memory op, in trace
   order, from one lookup-only pass over a fresh data side.  The key
   holds exactly what [lookup] reads of the config, plus the data
   stream's seed; latencies, energy and observers stay out, because
   [charge] reads those from the run's own [Dmem].  Like the
   fast-forward plan, a log is keyed on the physical block array: the
   memory ops it walks are derived from the program, so they are
   constants of a given trace, and every layout and I-side scheme
   replayed from it shares the log. *)
type dkey = {
  dcache : Wp_cache.Geometry.t;
  replacement : Wp_cache.Replacement.t;
  dtlb_entries : int;
  page_bytes : int;
  seed : int;
}

let logs : (int array, dkey, Bytes.t) Weak_memo.t = Weak_memo.create 64

let outcome_pass (config : Config.t) t =
  let dmem = Dmem.create config in
  let data = Data_stream.create ~seed:t.data_seed in
  let n =
    Array.fold_left
      (fun n id -> n + Array.length t.info.(id).Compiled_trace.mem)
      0 t.blocks
  in
  let log = Bytes.create n in
  let i = ref 0 in
  Array.iter
    (fun id ->
      Array.iter
        (fun (op : Compiled_trace.mem_op) ->
          Bytes.set log !i
            (Char.unsafe_chr
               (Dmem.lookup dmem (Data_stream.next data op.locality)));
          incr i)
        t.info.(id).Compiled_trace.mem)
    t.blocks;
  log

let replay_data (config : Config.t) t =
  if !(t.instrs) > 0 || Option.is_some t.outcomes then
    invalid_arg "Block_exec.replay_data: trace already started";
  let key =
    {
      dcache = config.dcache;
      replacement = config.replacement;
      dtlb_entries = config.dtlb_entries;
      page_bytes = config.page_bytes;
      seed = t.data_seed;
    }
  in
  t.outcomes <-
    Some (Weak_memo.memo logs t.blocks key (fun () -> outcome_pass config t))

(* One memory op's data side: charged from the log when the trace
   replays one, else looked up live. *)
let[@inline] data_access dmem t locality ~write =
  match t.outcomes with
  | Some log ->
      let i = t.next_op in
      t.next_op <- i + 1;
      Dmem.charge dmem t.stats (Char.code (Bytes.unsafe_get log i))
  | None -> Dmem.access dmem t.stats (Data_stream.next t.data locality) ~write

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
  let stats = t.stats in
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
        + data_access dmem t op.Compiled_trace.locality
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
          data_access m.dmem t instr.Wp_isa.Instr.locality ~write:false
      | Wp_isa.Opcode.Store ->
          data_access m.dmem t instr.Wp_isa.Instr.locality ~write:true
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

(* Packs a run of 2-bit outcomes into words, 30 per word. *)
let add_outcomes log ~pos ~n ~add =
  let w = ref 0 in
  for i = 0 to n - 1 do
    w := (!w lsl 2) lor Char.code (Bytes.get log (pos + i));
    if i mod 30 = 29 then begin
      add !w;
      w := 0
    end
  done;
  add !w

let ff_ctx m t ~config ~policy ~report ~cache ~cycle_headroom =
  let info = t.info and blocks = t.blocks in
  let period_mem ~start ~period =
    let n = ref 0 in
    for j = start to start + period - 1 do
      n := !n + Array.length info.(blocks.(j)).Compiled_trace.mem
    done;
    !n
  in
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
           loops).  A replayed data side's state is its log position,
           and all an iteration can observe of it is its own logged
           outcomes: those are the fingerprint, and [skip_data] checks
           that the skipped iterations repeat them. *)
        let pm = period_mem ~start ~period in
        if pm > 0 then begin
          match t.outcomes with
          | Some log -> add_outcomes log ~pos:t.next_op ~n:pm ~add
          | None ->
              Dmem.fingerprint m.dmem ~add;
              Data_stream.fingerprint t.data ~add
        end;
        Wp_pipeline.Btb.fingerprint m.btb ~add);
    skip_data =
      (fun ~start ~period ~iters ->
        match t.outcomes with
        | None -> iters
        | Some log ->
            let pm = period_mem ~start ~period in
            if pm = 0 then iters
            else begin
              (* Iteration [j] starts at [c + j * pm]; it repeats the
                 current one iff every outcome equals the one [pm]
                 earlier. *)
              let c = t.next_op in
              let stop = c + (iters * pm) in
              let i = ref (c + pm) in
              while !i < stop && Bytes.get log !i = Bytes.get log (!i - pm) do
                incr i
              done;
              let n = min iters ((!i - c) / pm) in
              t.next_op <- c + (n * pm);
              n
            end);
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
      | Some _ ->
          (* live and logged data sides fingerprint differently *)
          Printf.sprintf "%d/%s/%s" t.token (Config.digest config)
            (if Option.is_some t.outcomes then "log" else "live"));
    cycle_headroom;
  }
