(* Buckets live in a flat float array so the hot [add_*] calls mutate an
   unboxed cell: a [mutable float] field in this (mixed) record would
   box a fresh float on every addition — measurable on the simulator's
   per-fetch charge path.  Indices follow the bucket order of
   [Wp_obs.Probe]. *)
(* Who hears the additions: nobody, a probe (one event per addition),
   or a sampler, whose window and cumulative accumulators receive the
   same additions in place — the hot case, with no event to build and
   no call to make.  [Quiet] is a constant constructor, so an unobserved
   addition costs the one test an [option] would, and a detached
   account marshals exactly as one with no probe did. *)
type observer =
  | Quiet
  | Events of Wp_obs.Probe.t
  | Mirror of { window : float array; cum : float array }

type t = {
  buckets : float array;  (** icache, itlb, dcache, memory, core *)
  mutable observer : observer;
}

let icache_i = 0
let itlb_i = 1
let dcache_i = 2
let memory_i = 3
let core_i = 4

let create () = { buckets = Array.make 5 0.; observer = Quiet }

let set_probe t probe =
  t.observer <- (match probe with Some p -> Events p | None -> Quiet)

let set_sampler t sampler =
  t.observer <-
    (match sampler with
    | Some s ->
        let window, cum = Wp_obs.Sampler.energy_accumulators s in
        Mirror { window; cum }
    | None -> Quiet)

(* Under [Mirror] the sampler's cumulative cell is the bucket itself
   (both start at zero and take the same additions in the same order),
   so it is stored, not re-added. *)
let add t i bucket e =
  let v = t.buckets.(i) +. e in
  t.buckets.(i) <- v;
  match t.observer with
  | Quiet -> ()
  | Events p -> p (Wp_obs.Probe.Energy { bucket; pj = e })
  | Mirror { window; cum } ->
      window.(i) <- window.(i) +. e;
      cum.(i) <- v
[@@inline]

let add_icache t e = add t icache_i Icache e

let add_icache_run t e ~n =
  (* Repeated adds of the same constant, in order: bit-identical to
     calling [add_icache] [n] times.  A probe hears one aggregate event
     and replays the adds itself. *)
  match t.observer with
  | Quiet ->
      for _ = 1 to n do
        t.buckets.(icache_i) <- t.buckets.(icache_i) +. e
      done
  | Events p ->
      for _ = 1 to n do
        t.buckets.(icache_i) <- t.buckets.(icache_i) +. e
      done;
      if n > 0 then p (Wp_obs.Probe.Energy_run { bucket = Icache; pj = e; n })
  | Mirror { window; cum } ->
      (* two independent chains in one loop, so the window's adds ride
         along with the bucket's *)
      let b = ref t.buckets.(icache_i) and w = ref window.(icache_i) in
      for _ = 1 to n do
        b := !b +. e;
        w := !w +. e
      done;
      t.buckets.(icache_i) <- !b;
      window.(icache_i) <- !w;
      cum.(icache_i) <- !b

let add_itlb t e = add t itlb_i Itlb e
let add_dcache t e = add t dcache_i Dcache e
let add_memory t e = add t memory_i Memory e
let add_core t e = add t core_i Core e

let replay t ~charges ~lens ~iters =
  if Array.length charges <> 5 || Array.length lens <> 5 then
    invalid_arg "Account.replay: five buckets expected";
  (match t.observer with
  | Quiet -> ()
  | Events _ | Mirror _ -> invalid_arg "Account.replay: observer attached");
  (* [iters] repetitions of each bucket's recorded charge sequence, in
     recorded order.  Buckets are independent accumulators, so per-bucket
     order is enough for bit-identity with re-running the [add_*] calls;
     the local accumulator performs the same float additions in the same
     order as the per-call bucket updates would. *)
  for b = 0 to 4 do
    let seq = charges.(b) in
    let len = lens.(b) in
    if len > 0 then begin
      if len > Array.length seq then invalid_arg "Account.replay: bad length";
      let acc = ref t.buckets.(b) in
      for _ = 1 to iters do
        for j = 0 to len - 1 do
          acc := !acc +. Array.unsafe_get seq j
        done
      done;
      t.buckets.(b) <- !acc
    end
  done

let icache_pj t = t.buckets.(icache_i)
let itlb_pj t = t.buckets.(itlb_i)
let dcache_pj t = t.buckets.(dcache_i)
let memory_pj t = t.buckets.(memory_i)
let core_pj t = t.buckets.(core_i)

let total_pj t =
  t.buckets.(icache_i) +. t.buckets.(itlb_i) +. t.buckets.(dcache_i)
  +. t.buckets.(memory_i) +. t.buckets.(core_i)

let icache_share t =
  let total = total_pj t in
  if total <= 0.0 then 0.0 else t.buckets.(icache_i) /. total

let pp ppf t =
  Format.fprintf ppf
    "E[pJ]: icache=%.0f itlb=%.0f dcache=%.0f mem=%.0f core=%.0f (icache %.1f%%)"
    (icache_pj t) (itlb_pj t) (dcache_pj t) (memory_pj t) (core_pj t)
    (100.0 *. icache_share t)
