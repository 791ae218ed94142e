(** Block-level execution of a generated program.

    The walker interprets the ICFG: branches flip a coin with the
    block's (input-perturbed) taken probability, calls push the
    continuation, returns pop it, and when the program finishes the
    walker restarts at the entry — the benchmark is effectively rerun
    until the dynamic block budget is spent, as driver scripts do.

    The {e training} and {e evaluation} inputs differ in seed, budget
    and a small perturbation of every branch probability, so a profile
    gathered on the training input is honestly imperfect for the
    evaluation run — mirroring the paper's small/large MiBench input
    protocol (Section 5). *)

type input = Small | Large

type trace = {
  blocks : int array;  (** executed block ids, in order *)
  dynamic_instrs : int;
  restarts : int;  (** times the program ran to completion *)
}

val profile : Codegen.t -> input -> Wp_cfg.Profile.t
(** Execution counts only (what the compiler pass consumes). *)

val trace : Codegen.t -> input -> trace
(** Full block trace (what the simulator replays). *)

val trace_and_profile : Codegen.t -> input -> trace * Wp_cfg.Profile.t

val perturbed_probs : Codegen.t -> input -> float array
(** The per-input branch probabilities actually used (exposed for
    tests). *)
