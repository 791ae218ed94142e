type t = { l0 : Cam_cache.t; probe : Wp_obs.Probe.t option }

type result = {
  l0_hit : bool;
  l0_tag_comparisons : int;
  penalty_cycles : int;
}

let create ?probe ~l0 () =
  if l0.Geometry.assoc <> 1 then
    invalid_arg "Filter_cache.create: the L0 must be direct-mapped";
  { l0 = Cam_cache.create ?probe l0 ~replacement:Replacement.Round_robin; probe }


let access t addr =
  let outcome = Cam_cache.lookup_full t.l0 addr in
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.L0_access { hit = outcome.Cam_cache.hit }));
  if outcome.Cam_cache.hit then
    { l0_hit = true; l0_tag_comparisons = 1; penalty_cycles = 0 }
  else begin
    ignore (Cam_cache.fill_absent t.l0 addr Cam_cache.Victim_by_policy);
    { l0_hit = false; l0_tag_comparisons = 1; penalty_cycles = 1 }
  end

(* Canonical fingerprint: the L0 contents (the backing L1 is owned and
   fingerprinted by the fetch engine). *)
let fingerprint t ~add = Cam_cache.fingerprint t.l0 ~add

let flush t = Cam_cache.flush t.l0
