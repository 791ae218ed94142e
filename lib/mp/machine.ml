module Config = Wp_sim.Config
module Stats = Wp_sim.Stats
module Simulator = Wp_sim.Simulator
module Steady_state = Wp_sim.Steady_state
module Compiled_trace = Wp_sim.Compiled_trace
module Fetch_engine = Wp_sim.Fetch_engine
module Block_exec = Wp_sim.Block_exec
module Dmem = Wp_sim.Dmem
module Account = Wp_energy.Account
module Btb = Wp_pipeline.Btb
module Tracer = Wp_workloads.Tracer
module Codegen = Wp_workloads.Codegen
module Probe = Wp_obs.Probe

type btb_policy = Btb_shared | Btb_flush
type drowsy_policy = Drowsy_shared | Drowsy_flush
type sched_policy = Round_robin | Priority

type options = {
  quantum_cycles : int;
  kernel : bool;
  btb_policy : btb_policy;
  drowsy_policy : drowsy_policy;
  sched : sched_policy;
}

let default_options =
  {
    quantum_cycles = 50_000;
    kernel = true;
    btb_policy = Btb_shared;
    drowsy_policy = Drowsy_shared;
    sched = Round_robin;
  }

let oracle_options =
  {
    quantum_cycles = 0;
    kernel = false;
    btb_policy = Btb_shared;
    drowsy_policy = Drowsy_shared;
    sched = Round_robin;
  }

type process_result = {
  pr_name : string;
  pr_placed : bool;
  pr_base : Wp_isa.Addr.t;
  pr_stats : Stats.t;
  pr_dispatches : int;
}

type result = {
  aggregate : Stats.t;
  processes : process_result list;
  system : Stats.t;
  switches : int;
  kernel_runs : int;
  timer_fires : int;
}

let switches_per_million r =
  if r.aggregate.Stats.retired_instrs = 0 then 0.0
  else
    float_of_int r.switches *. 1_000_000.0
    /. float_of_int r.aggregate.Stats.retired_instrs

let conserves r =
  let sum = Array.map (fun _ -> 0) (Stats.snapshot_ints r.aggregate) in
  let add s = Array.iteri (fun i v -> sum.(i) <- sum.(i) + v) (Stats.snapshot_ints s) in
  List.iter (fun p -> add p.pr_stats) r.processes;
  add r.system;
  sum = Stats.snapshot_ints r.aggregate

(* One process's share of the machine: its compiled image at a private
   base address, replayed with its own data stream, [Stats.t] and
   counters, and its scheduling state.  The interrupt kernel reuses the
   same record (charging into the system stats) so both run through the
   same execution paths. *)
type proc_state = {
  pname : string;
  placed : bool;  (** effective: mix flag && way-placement scheme *)
  priority : int;
  base : Wp_isa.Addr.t;
  warea : int;  (** way-placed window bytes at [base]; 0 if unplaced *)
  tr : Block_exec.trace;
  mutable k : int;  (** next trace position *)
  mutable dispatches : int;
}

let align_up n ~quantum = (n + quantum - 1) / quantum * quantum

let proc_state config ~pname ~placed ~priority ~base ~warea ~trace ~stats
    compiled =
  {
    pname;
    placed;
    priority;
    base;
    warea;
    tr = Block_exec.trace config ~stats trace compiled;
    k = 0;
    dispatches = 0;
  }

(* Lay one process out at [base]: placed processes get the placement
   pass's order and a live way-placement window of the machine's
   configured area; the rest keep the original order and no window.
   Returns the state plus the next free page-aligned base, reserving
   the larger of the code image and the placement window so process
   address windows never overlap. *)
let prepare_proc (config : Config.t) ~base (p : Mix.proc) =
  let spec = p.Mix.spec in
  let program = Codegen.generate spec in
  let graph = program.Codegen.graph in
  let placed, warea =
    match config.scheme with
    | Config.Way_placement { area_bytes } when p.Mix.placed ->
        (true, area_bytes)
    | Config.Way_placement _ | Config.Baseline | Config.Way_memoization
    | Config.Way_prediction | Config.Filter_cache _ ->
        (false, 0)
  in
  let order =
    if placed then
      Wp_layout.Placer.place graph (Tracer.profile program Tracer.Small)
    else Wp_layout.Placer.original graph
  in
  let layout = Wp_layout.Binary_layout.of_order graph ~base order in
  let compiled = Compiled_trace.make ~program ~layout in
  let trace = Tracer.trace program Tracer.Large in
  let footprint =
    let code = Wp_layout.Binary_layout.code_size_bytes layout in
    if code > warea then code else warea
  in
  let next_base = align_up (base + footprint) ~quantum:config.page_bytes in
  ( proc_state config ~pname:p.Mix.pname ~placed ~priority:p.Mix.priority ~base
      ~warea ~trace ~stats:(Stats.create ()) compiled,
    next_base )

let run ?probe ?(reference_only = false) ?fastforward
    ?(ff_policy = Steady_state.default_policy) ?ff_report ?snapshot_cache
    ~(config : Config.t) ~options mix =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.run: " ^ msg));
  (match Mix.validate mix with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.run: " ^ msg));
  let reference = reference_only || Option.is_some probe in
  let quantum =
    if options.quantum_cycles <= 0 then max_int else options.quantum_cycles
  in
  let system = Stats.create () in
  (* Process 0 sits exactly at [Simulator.code_base] — the identity
     oracle relies on a single-process mix seeing the very addresses
     [Simulator.run] uses. *)
  let procs =
    let next = ref Simulator.code_base in
    Array.of_list
      (List.map
         (fun p ->
           let st, next' = prepare_proc config ~base:!next p in
           next := next';
           st)
         mix)
  in
  let n = Array.length procs in
  let kernel =
    if not options.kernel then None
    else begin
      let k = Kernel.prepare ~page_bytes:config.page_bytes in
      let warea =
        match config.scheme with
        | Config.Way_placement _ -> k.Kernel.area_bytes
        | Config.Baseline | Config.Way_memoization | Config.Way_prediction
        | Config.Filter_cache _ ->
            0
      in
      Some
        (proc_state config ~pname:"kernel" ~placed:(warea > 0) ~priority:0
           ~base:Kernel.base ~warea ~trace:k.Kernel.trace ~stats:system
           k.Kernel.compiled)
    end
  in
  (match probe with
  | None -> ()
  | Some p ->
      Array.iter
        (fun st -> Account.set_probe st.tr.stats.Stats.account (Some p))
        procs;
      Account.set_probe system.Stats.account (Some p));
  let m = Block_exec.machine ?probe ~code_base:Simulator.code_base config in
  let engine = m.engine in
  let switches = ref 0 in
  let kernel_runs = ref 0 in
  let timer_fires = ref 0 in
  (* The drowsy clock is the charging process's fetch counter; track
     whose [Stats.t] currently holds it and hand the clock over
     (gap-preserving rebase, or a full sleep under the flush policy)
     whenever the charging stats change. *)
  let clock = ref system in
  let drowsy_switch_to (st : Stats.t) =
    let from = !clock in
    if from != st then begin
      (match options.drowsy_policy with
      | Drowsy_shared ->
          Fetch_engine.drowsy_rebase engine ~old_now:from.Stats.fetches
            ~new_now:st.Stats.fetches
      | Drowsy_flush ->
          Fetch_engine.drowsy_sleep_all engine ~now:from.Stats.fetches);
      clock := st
    end
  in
  (* One trace position, on the block-batched body or — probed and
     reference runs — stepped through one machine-wide core, whose
     cumulative [Retire] events drive the sampler clock. *)
  let core = if reference then Some (Block_exec.core ?probe m) else None in
  let exec_block (p : proc_state) k =
    match core with
    | None -> Block_exec.exec m p.tr k ~limit:max_int
    | Some core -> Block_exec.step m p.tr core k ~from:0
  in
  let finished p = p.k >= Array.length p.tr.blocks in
  (* Steady-state fast-forward on the fast path, one resumable driver
     per user process (the kernel trace is short and replays whole —
     not worth detecting).  Same bail-out structure as [Simulator]:
     probes and reference runs never engage it. *)
  let ff_enabled =
    (not reference)
    &&
    match fastforward with
    | Some b -> b
    | None -> Simulator.default_fastforward ()
  in
  let report =
    match ff_report with Some r -> r | None -> Steady_state.create_report ()
  in
  (* The running process's cycle count at its dispatch. *)
  let q_base = ref 0 in
  (* A skip may never cross the quantum boundary: the reference loop
     would have taken the timer interrupt mid-iteration, so cap skips at
     [quantum - 1 - used] cycles and let the blocks around the expiry
     execute one by one — switch points land on exactly the reference
     loop's block boundaries. *)
  let headroom (p : proc_state) () =
    quantum - 1 - (!(p.tr.cycles) - !q_base)
  in
  let ff =
    if not ff_enabled then [||]
    else
      Array.map
        (fun p ->
          Steady_state.make
            (Block_exec.ff_ctx m p.tr ~config ~policy:ff_policy ~report
               ~cache:snapshot_cache ~cycle_headroom:(Some (headroom p))))
        procs
  in
  (* Run process [i] until its trace ends or the quantum expires
     (checked at block boundaries — the block cycle deltas are
     identical on both execution paths, so scheduling decisions are
     too).  The fast-forward driver executes blocks through the same
     batched body and lands skipped iterations in the same counters. *)
  let run_slice i =
    let p = procs.(i) in
    p.dispatches <- p.dispatches + 1;
    q_base := !(p.tr.cycles);
    let until () = !(p.tr.cycles) - !q_base >= quantum in
    if Array.length ff = 0 then begin
      let continue = ref true in
      while !continue do
        exec_block p p.k;
        p.k <- p.k + 1;
        continue := not (finished p || until ())
      done
    end
    else begin
      Steady_state.reawaken ff.(i);
      Steady_state.advance ff.(i) ~until;
      p.k <- Steady_state.pos ff.(i)
    end;
    if not (finished p) then incr timer_fires
  in
  (* The interrupt handler: replay the whole kernel trace into the
     system stats.  The kernel is mapped in every address space, so no
     TLB flush surrounds it — its pages evict user entries naturally
     (the I-TLB churn under measurement). *)
  let run_kernel (ks : proc_state) =
    incr kernel_runs;
    drowsy_switch_to system;
    Fetch_engine.set_window engine ~base:ks.base ~area_bytes:ks.warea;
    ks.k <- 0;
    while not (finished ks) do
      exec_block ks ks.k;
      ks.k <- ks.k + 1
    done;
    ks.dispatches <- ks.dispatches + 1;
    Fetch_engine.reset_stream engine
  in
  (* Next process to dispatch, scanning round-robin from [cur + 1] so
     the current process is preferred last among equals; [-1] when
     every trace is drained. *)
  let pick ~cur =
    match options.sched with
    | Round_robin ->
        let found = ref (-1) in
        let j = ref 1 in
        while !found < 0 && !j <= n do
          let i = (cur + !j) mod n in
          if not (finished procs.(i)) then found := i;
          incr j
        done;
        !found
    | Priority ->
        let best = ref (-1) in
        for j = 1 to n do
          let i = (cur + j) mod n in
          if
            (not (finished procs.(i)))
            && (!best < 0 || procs.(i).priority > procs.(!best).priority)
          then best := i
        done;
        !best
  in
  let dispatch i ~switched =
    if switched then begin
      incr switches;
      (* Address-space change: shoot down both TLBs (no ASIDs); caches
         are physical and deliberately survive so processes pollute
         each other's ways. *)
      Fetch_engine.flush_tlb engine;
      Dmem.flush_tlb m.dmem;
      (match options.btb_policy with
      | Btb_flush -> Btb.reset m.btb
      | Btb_shared -> ());
      match probe with
      | None -> ()
      | Some p -> p (Probe.Context_switch { next = i })
    end;
    drowsy_switch_to procs.(i).tr.stats;
    Fetch_engine.set_window engine ~base:procs.(i).base
      ~area_bytes:procs.(i).warea
  in
  let cur = ref (pick ~cur:(n - 1)) in
  clock := procs.(!cur).tr.stats;
  dispatch !cur ~switched:false;
  let running = ref true in
  while !running do
    run_slice !cur;
    match pick ~cur:!cur with
    | -1 -> running := false
    | next ->
        (* The switch boundary: drop the fetch-stream context, take the
           timer interrupt through the kernel, then either change
           address space or resume the same process. *)
        Fetch_engine.reset_stream engine;
        Option.iter run_kernel kernel;
        if next <> !cur then dispatch next ~switched:true
        else begin
          drowsy_switch_to procs.(next).tr.stats;
          Fetch_engine.set_window engine ~base:procs.(next).base
            ~area_bytes:procs.(next).warea
        end;
        cur := next
  done;
  Array.iter (fun p -> Block_exec.settle p.tr) procs;
  Option.iter (fun ks -> Block_exec.settle ks.tr) kernel;
  (* Leakage runs on the aggregate fetch clock (every fetch kept lines
     awake, whichever process issued it); align the drowsy state to it
     before finalising into the system account.  With a single process
     and no kernel the clock is already there — no rebase, and the
     charges are bit-identical to [Simulator.run]'s. *)
  let agg_fetches =
    Array.fold_left
      (fun acc p -> acc + p.tr.stats.Stats.fetches)
      system.Stats.fetches procs
  in
  let agg_cycles =
    Array.fold_left
      (fun acc p -> acc + p.tr.stats.Stats.cycles)
      system.Stats.cycles procs
  in
  if !clock.Stats.fetches <> agg_fetches then
    Fetch_engine.drowsy_rebase engine ~old_now:!clock.Stats.fetches
      ~new_now:agg_fetches;
  Fetch_engine.finalize engine system ~cycles:agg_cycles
    ~now_fetches:agg_fetches;
  let core_rest = config.energy.Wp_energy.Params.core_rest_pj_per_cycle in
  Array.iter
    (fun p ->
      Account.add_core p.tr.stats.Stats.account
        (core_rest *. float_of_int p.tr.stats.Stats.cycles))
    procs;
  Account.add_core system.Stats.account
    (core_rest *. float_of_int system.Stats.cycles);
  (* Aggregate = per-process totals + system, bucket by bucket and
     counter by counter — attribution sums to the aggregate exactly (a
     conservation law the differ asserts), and for a single process
     with no kernel the sums reduce to the process's own values plus
     the system-side leakage, bit-identical to [Simulator.run]. *)
  let aggregate = Stats.create () in
  let zero = Stats.snapshot_ints (Stats.create ()) in
  let add_into st =
    Stats.add_scaled_delta aggregate ~before:zero
      ~after:(Stats.snapshot_ints st) ~times:1;
    let a = aggregate.Stats.account and b = st.Stats.account in
    Account.add_icache a (Account.icache_pj b);
    Account.add_itlb a (Account.itlb_pj b);
    Account.add_dcache a (Account.dcache_pj b);
    Account.add_memory a (Account.memory_pj b);
    Account.add_core a (Account.core_pj b)
  in
  Array.iter (fun p -> add_into p.tr.stats) procs;
  add_into system;
  (match probe with
  | None -> ()
  | Some _ ->
      Array.iter
        (fun st -> Account.set_probe st.tr.stats.Stats.account None)
        procs;
      Account.set_probe system.Stats.account None);
  {
    aggregate;
    processes =
      Array.to_list
        (Array.map
           (fun p ->
             {
               pr_name = p.pname;
               pr_placed = p.placed;
               pr_base = p.base;
               pr_stats = p.tr.stats;
               pr_dispatches = p.dispatches;
             })
           procs);
    system;
    switches = !switches;
    kernel_runs = !kernel_runs;
    timer_fires = !timer_fires;
  }
