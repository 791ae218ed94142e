type t = Quiet | Events of Probe.t | Tally of Sampler.t

let make ?probe ?sampler () =
  match (probe, sampler) with
  | Some _, Some _ -> invalid_arg "Sink.make: a probe or a sampler, not both"
  | Some p, None -> Events p
  | None, Some s -> Tally s
  | None, None -> Quiet

let probe = function
  | Quiet -> None
  | Events p -> Some p
  | Tally s -> Some (Sampler.probe s)

let[@inline] emit t ev =
  match t with Quiet -> () | Events p -> p ev | Tally s -> Sampler.observe s ev
