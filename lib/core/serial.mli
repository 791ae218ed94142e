(** Plain-text serialisation of the pass's artifacts.

    A real deployment gathers the profile on a training device, ships
    it to the link step, and archives the block order that was shipped
    in the binary.  The formats are line-based, versioned and strict:
    loaders reject anything malformed rather than guessing.

    Profile format (only executed blocks are stored):
    {v
    wayplace-profile v1
    blocks <total block count>
    <block id> <count>
    ...
    v}

    Order format:
    {v
    wayplace-order v1
    blocks <count>
    <block id>
    ...
    v} *)

val profile_to_string : Wp_cfg.Profile.t -> string

val profile_of_string : string -> (Wp_cfg.Profile.t, string) result
(** Rejects: bad magic/version, counts out of range, duplicate or
    out-of-bounds block ids. *)

val order_to_string : Wp_cfg.Basic_block.id array -> string
val order_of_string : string -> (Wp_cfg.Basic_block.id array, string) result

val load : path:string -> (string, string) result
(** Read a file ([Error] on I/O failure). *)
