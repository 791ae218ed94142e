(** Chains of basic blocks (paper Section 3).

    A chain is an ordered run of blocks whose relative order the final
    binary must preserve: consecutive blocks in a chain are linked by a
    fall-through edge (which includes the continuation block of every
    call site).  Blocks with no such constraint form singleton
    chains. *)

type t = {
  blocks : Wp_cfg.Basic_block.id list;  (** non-empty, layout order *)
  weight : int;  (** sum of dynamic instruction counts of the blocks *)
}

val make : blocks:Wp_cfg.Basic_block.id list -> weight:int -> t
(** @raise Invalid_argument on an empty block list or negative weight. *)

val length : t -> int
val first : t -> Wp_cfg.Basic_block.id
val compare_by_weight : t -> t -> int
(** Heaviest first; ties broken by first block id so the placement is
    deterministic. *)

val pp : Format.formatter -> t -> unit
