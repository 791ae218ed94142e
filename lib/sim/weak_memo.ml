type ('k, 'p, 'v) t = {
  slots : ('k, 'p * 'v) Ephemeron.K1.t option array;
  mutable clock : int;
  lock : Mutex.t;
}

let create n =
  { slots = Array.make n None; clock = 0; lock = Mutex.create () }

let find t key param =
  let rec go i =
    if i >= Array.length t.slots then None
    else
      match t.slots.(i) with
      | Some e -> (
          match Ephemeron.K1.query e key with
          | Some (p, v) when p = param -> Some v
          | Some _ | None -> go (i + 1))
      | None -> go (i + 1)
  in
  go 0

let memo t key param compute =
  match Mutex.protect t.lock (fun () -> find t key param) with
  | Some v -> v
  | None ->
      (* Computed outside the lock: a racing domain at worst duplicates
         the work, and the first insert wins. *)
      let v = compute () in
      Mutex.protect t.lock (fun () ->
          match find t key param with
          | Some v' -> v'
          | None ->
              t.slots.(t.clock mod Array.length t.slots) <-
                Some (Ephemeron.K1.make key (param, v));
              t.clock <- t.clock + 1;
              v)
