type t = {
  cache : Wp_cache.Cam_cache.t;
  tlb : Wp_tlb.Tlb.t;
  energies : Wp_energy.Cam_energy.t;
  tlb_lookup_pj : float;
  memory_latency : int;
  tlb_walk_latency : int;
  memory_access_pj : float;
  sink : Wp_obs.Sink.t;
  (* Hot per-access constants: [Cam_energy.t] is an all-float record,
     so reading its fields boxes a float per access; these fields are
     boxed once at creation (mixed record) and free to read. *)
  tag_full_pj : float;
  dw_pj : float;
  fill_pj : float;
}

let no_wp _ = false

let create ?probe ?sampler (config : Config.t) =
  let energies = Wp_energy.Cam_energy.of_geometry config.energy config.dcache in
  {
    (* The D-cache's own CAM gets no probe: [Tag_search]/[Line_fill]
       events are an I-side signal (the ways-enabled distribution). *)
    cache =
      Wp_cache.Cam_cache.create config.dcache ~replacement:config.replacement;
    tlb =
      Wp_tlb.Tlb.create ~entries:config.dtlb_entries
        ~page_bytes:config.page_bytes;
    energies;
    tlb_lookup_pj =
      Wp_energy.Cam_energy.tlb_lookup_pj config.energy
        ~entries:config.dtlb_entries ~page_bytes:config.page_bytes;
    memory_latency = config.memory_latency;
    tlb_walk_latency = config.tlb_walk_latency;
    memory_access_pj = config.energy.Wp_energy.Params.memory_access_pj;
    sink = Wp_obs.Sink.make ?probe ?sampler ();
    tag_full_pj =
      Wp_energy.Cam_energy.tag_search energies
        ~ways:config.dcache.Wp_cache.Geometry.assoc;
    dw_pj = energies.Wp_energy.Cam_energy.data_word_pj;
    fill_pj = energies.Wp_energy.Cam_energy.line_fill_pj;
  }

(* Outcome bits: what [charge] needs to know of one access. *)
let tlb_miss_bit = 1
let cache_miss_bit = 2

let lookup t addr =
  let tlb_bits = Wp_tlb.Tlb.lookup_bits t.tlb addr ~wp_bit_of_page:no_wp in
  let tlb_miss = if tlb_bits land 1 = 1 then 0 else tlb_miss_bit in
  if Wp_cache.Cam_cache.lookup_full_way t.cache addr >= 0 then tlb_miss
  else begin
    let _way, _evicted =
      Wp_cache.Cam_cache.fill_absent t.cache addr
        Wp_cache.Cam_cache.Victim_by_policy
    in
    tlb_miss lor cache_miss_bit
  end

let charge t (stats : Stats.t) outcome =
  stats.dcache_accesses <- stats.dcache_accesses + 1;
  let account = stats.account in
  Wp_energy.Account.add_dcache account t.tlb_lookup_pj;
  let tlb_stall =
    if outcome land tlb_miss_bit = 0 then 0
    else begin
      stats.dtlb_misses <- stats.dtlb_misses + 1;
      Wp_obs.Sink.emit t.sink Wp_obs.Probe.Dtlb_miss;
      Wp_energy.Account.add_memory account t.memory_access_pj;
      t.tlb_walk_latency
    end
  in
  let miss = outcome land cache_miss_bit <> 0 in
  (match t.sink with
  | Wp_obs.Sink.Quiet -> ()
  | Events p -> p (Wp_obs.Probe.Dcache_access { miss })
  | Tally s ->
      Wp_obs.Sampler.count s Dcache_accesses 1;
      if miss then Wp_obs.Sampler.count s Dcache_misses 1);
  Wp_energy.Account.add_dcache account t.tag_full_pj;
  Wp_energy.Account.add_dcache account t.dw_pj;
  let miss_stall =
    if not miss then 0
    else begin
      stats.dcache_misses <- stats.dcache_misses + 1;
      Wp_energy.Account.add_dcache account t.fill_pj;
      Wp_energy.Account.add_memory account t.memory_access_pj;
      t.memory_latency
    end
  in
  tlb_stall + miss_stall

let access t stats addr ~write:_ = charge t stats (lookup t addr)

let stall_bound t = t.tlb_walk_latency + t.memory_latency

let flush t =
  Wp_cache.Cam_cache.flush t.cache;
  Wp_tlb.Tlb.flush t.tlb

(* Context-switch shootdown: only the D-TLB is invalidated (no ASIDs);
   D-cache contents are physical and survive across processes. *)
let flush_tlb t = Wp_tlb.Tlb.flush t.tlb

(* Canonical fingerprint of the data side (D-cache + D-TLB) for the
   steady-state fast-forward detector. *)
let fingerprint t ~add =
  Wp_cache.Cam_cache.fingerprint t.cache ~add;
  Wp_tlb.Tlb.fingerprint t.tlb ~add
