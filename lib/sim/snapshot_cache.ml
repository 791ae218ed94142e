type entry = {
  e_fp : int array;
  e_ints : int array;
  e_charges : float array array;
  e_lens : int array;
  e_awake : int array;
  e_fetches : int;
  e_cycles : int;
  e_instrs : int;
}

(* The key is a 63-bit mix of everything that determines an
   iteration's effects, plus the unmixed components themselves: the
   hash indexes the table, and a candidate slot is only a hit after
   the scope, pattern and every fingerprint word compare equal — so a
   hash collision costs a miss (or a shadowed insert), never a wrong
   entry.  Keys are built once per region boundary on the fast path;
   a multiply-xor fold over the words is an order of magnitude cheaper
   than serialising them into a digest buffer. *)
type key = { h : int; scope : string; period : int; ids : int array }

(* An entry plus its LRU clock reading.  The table is small and bounded
   (hundreds of entries), so eviction scans for the minimum tick instead
   of maintaining an intrusive list — insertion is rare (one per newly
   converged region shape) and the scan is cheap next to the simulation
   work a single entry replaces. *)
type slot = { skey : key; entry : entry; mutable tick : int }

type t = {
  lock : Mutex.t;
  table : (int, slot) Hashtbl.t;
  cap : int;
  mutable clock : int;
  mutable lookups : int;
  mutable hits : int;
  mutable inserts : int;
  mutable evictions : int;
}

type counters = {
  lookups : int;
  hits : int;
  inserts : int;
  evictions : int;
  entries : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Snapshot_cache.create: capacity < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create (min capacity 64);
    cap = capacity;
    clock = 0;
    lookups = 0;
    hits = 0;
    inserts = 0;
    evictions = 0;
  }

let capacity t = t.cap

let[@inline] mix h x =
  let v = (h lxor x) * 0x100000001B3 in
  v lxor (v lsr 29)

let key ~scope ~period ~ids ~fp ~fp_len =
  let h = ref 0x811C9DC5 in
  for j = 0 to String.length scope - 1 do
    h := mix !h (Char.code (String.unsafe_get scope j))
  done;
  h := mix !h period;
  for j = 0 to period - 1 do
    h := mix !h (Array.unsafe_get ids j)
  done;
  for j = 0 to fp_len - 1 do
    h := mix !h (Array.unsafe_get fp j)
  done;
  { h = !h land max_int; scope; period; ids }

let ids_equal a b =
  Array.length a = Array.length b
  &&
  let rec go j =
    j >= Array.length a
    || (Array.unsafe_get a j = Array.unsafe_get b j && go (j + 1))
  in
  go 0

let key_eq a b =
  a.period = b.period && String.equal a.scope b.scope && ids_equal a.ids b.ids

let fp_matches e ~fp ~fp_len =
  Array.length e.e_fp = fp_len
  &&
  let rec go j =
    j >= fp_len
    || (Array.unsafe_get e.e_fp j = Array.unsafe_get fp j && go (j + 1))
  in
  go 0

let find t ~key ~fp ~fp_len =
  Mutex.lock t.lock;
  t.lookups <- t.lookups + 1;
  let r =
    match Hashtbl.find_opt t.table key.h with
    | Some slot
      when key_eq slot.skey key && fp_matches slot.entry ~fp ~fp_len ->
        t.hits <- t.hits + 1;
        t.clock <- t.clock + 1;
        slot.tick <- t.clock;
        Some slot.entry
    | Some _ | None -> None
  in
  Mutex.unlock t.lock;
  r

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k slot ->
      match !victim with
      | Some (_, best) when slot.tick >= best -> ()
      | _ -> victim := Some (k, slot.tick))
    t.table;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t ~key entry =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.table key.h with
  | Some _ -> Hashtbl.remove t.table key.h
  | None -> if Hashtbl.length t.table >= t.cap then evict_lru t);
  t.clock <- t.clock + 1;
  t.inserts <- t.inserts + 1;
  Hashtbl.replace t.table key.h { skey = key; entry; tick = t.clock };
  Mutex.unlock t.lock

let counters t =
  Mutex.lock t.lock;
  let c =
    {
      lookups = t.lookups;
      hits = t.hits;
      inserts = t.inserts;
      evictions = t.evictions;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.lock;
  c

