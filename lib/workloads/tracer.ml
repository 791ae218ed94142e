open Wp_cfg

type input = Small | Large


type trace = { blocks : int array; dynamic_instrs : int; restarts : int }

let input_seed (p : Codegen.t) = function
  | Small -> p.spec.Spec.seed lxor 0x5EED_0001
  | Large -> p.spec.Spec.seed lxor 0x1A26_E000

let budget (p : Codegen.t) = function
  | Small -> p.spec.Spec.trace_blocks_small
  | Large -> p.spec.Spec.trace_blocks_large

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* Data-dependent branch behaviour: each input shifts every branch
   probability by a small deterministic amount. *)
let perturbed_probs (p : Codegen.t) input =
  let rng = Rng.create (input_seed p input) in
  Array.map
    (fun prob -> clamp 0.02 0.98 (prob +. ((Rng.float rng -. 0.5) *. 0.08)))
    p.taken_prob

(* One walk step per block; [record] sees every executed block. *)
let walk (p : Codegen.t) input ~record =
  let graph = p.graph in
  let probs = perturbed_probs p input in
  let rng = Rng.create (input_seed p input * 31 + 7) in
  let budget = budget p input in
  let entry = Icfg.entry graph in
  let dynamic_instrs = ref 0 in
  let restarts = ref 0 in
  let stack = ref [] in
  let current = ref entry in
  let executed = ref 0 in
  while !executed < budget do
    let id = !current in
    record id;
    incr executed;
    dynamic_instrs :=
      !dynamic_instrs + Basic_block.size_instrs (Icfg.block graph id);
    let next =
      match Basic_block.terminator (Icfg.block graph id) with
      | Wp_isa.Opcode.Branch ->
          if Rng.bool rng ~p:probs.(id) then Icfg.taken_succ graph id
          else Icfg.fallthrough_succ graph id
      | Wp_isa.Opcode.Jump -> Icfg.taken_succ graph id
      | Wp_isa.Opcode.Call -> begin
          match (Icfg.call_target graph id, Icfg.fallthrough_succ graph id) with
          | Some callee, Some cont ->
              stack := cont :: !stack;
              Some callee
          | (None | Some _), _ -> None
        end
      | Wp_isa.Opcode.Return -> begin
          match !stack with
          | cont :: rest ->
              stack := rest;
              Some cont
          | [] -> None
        end
      | Wp_isa.Opcode.Alu _ | Mac | Load | Store | Nop ->
          Icfg.fallthrough_succ graph id
    in
    match next with
    | Some b -> current := b
    | None ->
        (* Program finished (return from main): rerun. *)
        incr restarts;
        stack := [];
        current := entry
  done;
  (!dynamic_instrs, !restarts)

let profile p input =
  let prof = Profile.create ~num_blocks:(Icfg.num_blocks p.Codegen.graph) in
  let _ = walk p input ~record:(fun id -> Profile.record_block prof id) in
  prof

let trace p input =
  let n = budget p input in
  let blocks = Array.make n 0 in
  let i = ref 0 in
  let dynamic_instrs, restarts =
    walk p input ~record:(fun id ->
        blocks.(!i) <- id;
        incr i)
  in
  { blocks; dynamic_instrs; restarts }

let trace_and_profile p input =
  let n = budget p input in
  let prof = Profile.create ~num_blocks:(Icfg.num_blocks p.Codegen.graph) in
  let blocks = Array.make n 0 in
  let i = ref 0 in
  let dynamic_instrs, restarts =
    walk p input ~record:(fun id ->
        blocks.(!i) <- id;
        incr i;
        Profile.record_block prof id)
  in
  ({ blocks; dynamic_instrs; restarts }, prof)
