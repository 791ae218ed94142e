open Wp_cfg

type t = { blocks : Basic_block.id list; weight : int }

let make ~blocks ~weight =
  if blocks = [] then invalid_arg "Chain.make: empty chain";
  if weight < 0 then invalid_arg "Chain.make: negative weight";
  { blocks; weight }

let length t = List.length t.blocks

let first t =
  match t.blocks with
  | id :: _ -> id
  | [] -> invalid_arg "Chain.first: empty chain (excluded by make)"

let compare_by_weight a b =
  match compare b.weight a.weight with
  | 0 -> compare (first a) (first b)
  | c -> c

let pp ppf t =
  Format.fprintf ppf "@[<h>chain(w=%d): %a@]" t.weight
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
       (fun ppf id -> Format.fprintf ppf "B%d" id))
    t.blocks
