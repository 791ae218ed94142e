(* Differential tests: the oracle cache against the production CAM
   cache under random traffic, the program generator's validity and
   determinism, the shrinker's contract, and the headline run — every
   invariant in Differ holding over hundreds of generated programs. *)

module Cache = Wayplace.Cache
module Geometry = Cache.Geometry
module Replacement = Cache.Replacement
module Cam_cache = Cache.Cam_cache
module Check = Wayplace.Check
module Oracle = Check.Oracle_cache
module Progen = Check.Progen
module Differ = Check.Differ
module Spec = Wayplace.Workloads.Spec
module Rng = Wayplace.Workloads.Rng
module Stats = Wayplace.Sim.Stats

(* --- oracle cache vs production cache, random traffic --- *)

(* Drive both implementations with the same interleaved operation
   stream and require identical observable behaviour at every step:
   outcomes, victim choices, eviction reports, and full resident
   state. *)
let random_traffic ~replacement ~geometry ~seed ~ops =
  let rng = Rng.create seed in
  let cam = Cam_cache.create geometry ~replacement in
  let oracle = Oracle.create geometry ~replacement in
  let assoc = geometry.Geometry.assoc in
  (* a handful of hot lines so hits, conflicts and evictions all occur *)
  let addr_pool =
    Array.init (4 * Geometry.lines geometry) (fun _ ->
        Rng.int rng (16 * geometry.Geometry.size_bytes))
  in
  let check_outcome step what (c : Cam_cache.outcome) (o : Oracle.outcome) =
    let ck name a b =
      Alcotest.(check int)
        (Printf.sprintf "step %d %s %s" step what name)
        a b
    in
    Alcotest.(check bool)
      (Printf.sprintf "step %d %s hit" step what)
      c.Cam_cache.hit o.Oracle.hit;
    if c.Cam_cache.hit then ck "way" c.Cam_cache.way o.Oracle.way;
    ck "tag_comparisons" c.Cam_cache.tag_comparisons o.Oracle.tag_comparisons;
    ck "ways_precharged" c.Cam_cache.ways_precharged o.Oracle.ways_precharged
  in
  for step = 1 to ops do
    let addr = addr_pool.(Rng.int rng (Array.length addr_pool)) in
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        (* full lookup, fill on miss (the baseline fetch path) *)
        let c = Cam_cache.lookup_full cam addr in
        let o = Oracle.lookup_full oracle addr in
        check_outcome step "lookup_full" c o;
        if not c.Cam_cache.hit then begin
          let cw, cev = Cam_cache.fill cam addr Cam_cache.Victim_by_policy in
          let ow, oev = Oracle.fill oracle addr Oracle.Victim_by_policy in
          Alcotest.(check int)
            (Printf.sprintf "step %d fill way" step)
            cw ow;
          Alcotest.(check bool)
            (Printf.sprintf "step %d eviction agrees" step)
            true
            (match (cev, oev) with
            | None, None -> true
            | Some c, Some o ->
                c.Cam_cache.set = o.Oracle.set
                && c.Cam_cache.way = o.Oracle.way
                && c.Cam_cache.tag = o.Oracle.tag
            | _ -> false)
        end
    | 4 | 5 ->
        (* single-way probe (way-placement / way-prediction path) *)
        let way = Rng.int rng assoc in
        let c = Cam_cache.lookup_way cam addr ~way in
        let o = Oracle.lookup_way oracle addr ~way in
        check_outcome step "lookup_way" c o
    | 6 ->
        (* forced-way fill (way-placement) *)
        let way = Geometry.way_of_addr geometry addr in
        let cw, _ = Cam_cache.fill cam addr (Cam_cache.Forced_way way) in
        let ow, _ = Oracle.fill oracle addr (Oracle.Forced_way way) in
        Alcotest.(check int)
          (Printf.sprintf "step %d forced fill way" step)
          cw ow
    | 7 ->
        Alcotest.(check (option int))
          (Printf.sprintf "step %d probe" step)
          (Cam_cache.probe cam addr) (Oracle.probe oracle addr)
    | 8 ->
        let set = Geometry.set_index geometry addr in
        let way = Rng.int rng assoc in
        Cam_cache.invalidate cam ~set ~way;
        Oracle.invalidate oracle ~set ~way
    | _ ->
        (* occasional flush resets both to a known state *)
        if Rng.int rng 50 = 0 then begin
          Cam_cache.flush cam;
          Oracle.flush oracle
        end);
    if step mod 97 = 0 then begin
      Alcotest.(check int)
        (Printf.sprintf "step %d valid_lines" step)
        (Cam_cache.valid_lines cam)
        (Oracle.valid_lines oracle);
      for set = 0 to Geometry.sets geometry - 1 do
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "step %d resident set %d" step set)
          (Cam_cache.resident_tags cam ~set)
          (Oracle.resident_tags oracle ~set)
      done
    end
  done

let test_oracle_equivalence () =
  List.iter
    (fun replacement ->
      List.iter
        (fun (size_bytes, assoc, line_bytes) ->
          let geometry = Geometry.make ~size_bytes ~assoc ~line_bytes in
          List.iter
            (fun seed -> random_traffic ~replacement ~geometry ~seed ~ops:2000)
            [ 11; 42; 1234 ])
        [ (256, 2, 16); (512, 4, 16); (1024, 8, 32) ])
    [ Replacement.Round_robin; Replacement.Lru ]

(* --- the program generator --- *)

let test_progen_valid_and_deterministic () =
  for seed = 0 to 99 do
    let s1 = Progen.spec_of_seed seed in
    let s2 = Progen.spec_of_seed seed in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d deterministic" seed)
      true (s1 = s2);
    match Spec.validate s1 with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d invalid: %s" seed msg
  done;
  (* adjacent seeds give different programs (the stream is live) *)
  Alcotest.(check bool) "seeds differ" true
    (Progen.spec_of_seed 0 <> Progen.spec_of_seed 1)

let test_progen_spread () =
  (* The generator must cover the interesting region: some programs
     with loops, some with many functions, some tiny. *)
  let specs = List.init 200 Progen.spec_of_seed in
  let count p = List.length (List.filter p specs) in
  Alcotest.(check bool) "some with nested loops" true
    (count (fun s -> s.Spec.max_loop_depth >= 2) > 10);
  Alcotest.(check bool) "some loop-free" true
    (count (fun s -> s.Spec.max_loop_depth = 0) > 10);
  Alcotest.(check bool) "some many-function" true
    (count (fun s -> s.Spec.num_funcs >= 10) > 10);
  Alcotest.(check bool) "some single-function" true
    (count (fun s -> s.Spec.num_funcs = 1) > 2)

let test_shrink_candidates_strictly_smaller () =
  List.iter
    (fun seed ->
      let s = Progen.spec_of_seed seed in
      List.iter
        (fun c ->
          Alcotest.(check bool) "strictly smaller" true
            (Progen.size c < Progen.size s);
          Alcotest.(check bool) "still valid" true
            (Result.is_ok (Spec.validate c)))
        (Progen.shrink_candidates s))
    [ 0; 1; 2; 3; 4; 17; 99 ]

let test_minimize_contract () =
  (* An artificial monotone failure predicate: shrinking must stop at
     the smallest spec that still satisfies it, and the result must be
     locally minimal (every further candidate passes). *)
  let failing s = s.Spec.num_funcs >= 4 in
  let start = Progen.spec_of_seed 0 in
  Alcotest.(check bool) "chosen start fails" true (failing start);
  let small = Progen.minimize ~failing start in
  Alcotest.(check bool) "result still fails" true (failing small);
  Alcotest.(check int) "boundary reached" 4 small.Spec.num_funcs;
  Alcotest.(check int) "locally minimal: no candidate still fails" 0
    (List.length (List.filter failing (Progen.shrink_candidates small)));
  (* determinism: same input, same minimum *)
  Alcotest.(check bool) "deterministic" true
    (Progen.minimize ~failing start = small);
  (* the everything-fails predicate drives the spec to a fixpoint with
     no candidates left: the floor of the shrink lattice *)
  let floor = Progen.minimize ~failing:(fun _ -> true) start in
  Alcotest.(check int) "no candidates below the floor" 0
    (List.length (Progen.shrink_candidates floor))

(* --- the differential runner --- *)

let texts = List.map (Format.asprintf "%a" Differ.pp_violation)

(* An injected law that breaks once a program has [min_funcs]
   functions. *)
let fault law ~min_funcs s =
  if s.Spec.num_funcs >= min_funcs then
    [ { Differ.law; message = "too many functions" } ]
  else []

let test_run_seed_with_injected_check () =
  (* A fabricated violation exercises the whole report pipeline without
     a real simulator bug: run_seed must reproduce it, shrink the spec,
     and carry the violations of both programs. *)
  let check ?law:_ s = fault "functions" ~min_funcs:2 s in
  let seed =
    (* first seed whose generated program trips the injected check *)
    let rec find seed =
      if check (Progen.spec_of_seed seed) <> [] then seed else find (seed + 1)
    in
    find 0
  in
  match Differ.run_seed ~check seed with
  | None -> Alcotest.fail "injected violation not reported"
  | Some r ->
      Alcotest.(check int) "seed recorded" seed r.Differ.seed;
      Alcotest.(check string) "law recorded" "functions" r.Differ.law;
      Alcotest.(check (list string)) "violations carried"
        [ "functions: too many functions" ] (texts r.Differ.violations);
      Alcotest.(check int) "shrunk to the boundary" 2
        r.Differ.shrunk.Spec.num_funcs;
      Alcotest.(check (list string)) "shrunk program still fails"
        [ "functions: too many functions" ]
        (texts r.Differ.shrunk_violations);
      (* the report is printable (the repro the user sees) *)
      let text = Format.asprintf "%a" Differ.pp_report r in
      Alcotest.(check bool) "report names the seed" true
        (let needle = Printf.sprintf "seed %d" seed in
         let n = String.length needle in
         let rec scan i =
           i + n <= String.length text
           && (String.sub text i n = needle || scan (i + 1))
         in
         scan 0)

let test_run_seed_clean_is_none () =
  Alcotest.(check bool) "clean seed reports nothing" true
    (Differ.run_seed ~check:(fun ?law:_ _ -> []) 0 = None)

(* Two injected laws, both broken by the seed: the shrinker keeps the
   first one the seed broke and accepts only candidates that still
   break it, so the reproducer stops at that law's boundary even when
   the other law still fails on smaller programs. *)
let test_shrink_stays_on_first_law () =
  let seed =
    let rec find seed =
      if (Progen.spec_of_seed seed).Spec.num_funcs >= 6 then seed
      else find (seed + 1)
    in
    find 0
  in
  List.iter
    (fun (order, law, boundary) ->
      let check ?law:_ s =
        List.concat_map
          (fun l ->
            fault l ~min_funcs:(if l = "A" then 2 else 4) s)
          order
      in
      match Differ.run_seed ~check seed with
      | None -> Alcotest.fail "injected violations not reported"
      | Some r ->
          Alcotest.(check string) "first law kept" law r.Differ.law;
          Alcotest.(check int) "shrunk to that law's boundary" boundary
            r.Differ.shrunk.Spec.num_funcs;
          Alcotest.(check (list string)) "shrunk violations are that law's"
            [ law ^ ": too many functions" ]
            (texts r.Differ.shrunk_violations))
    [ ([ "A"; "B" ], "A", 2); ([ "B"; "A" ], "B", 4) ]

(* A program that cannot be prepared breaks the law [prepare], whichever
   law was asked for, and the fold reports the exception instead of
   raising it. *)
let test_prepare_failure_is_a_violation () =
  let bad = { (Progen.spec_of_seed 0) with Spec.num_funcs = 0 } in
  List.iter
    (fun law ->
      match Differ.check_spec ?law bad with
      | [ { Differ.law = "prepare"; message } ] ->
          Alcotest.(check bool) "names the program and the exception" true
            (String.starts_with
               ~prefix:(bad.Spec.name ^ ": raised: Invalid_argument")
               message)
      | vs ->
          Alcotest.failf "expected one prepare violation, got: %s"
            (String.concat "; " (texts vs)))
    [ None; Some "counters" ]

(* The gating of every law over the default grid, pinned: which laws
   run once per program, and on which geometries and cells the others
   run.  Entries are [law], [law@geometry] and [law@geometry/label]. *)
let test_law_gating () =
  let actual =
    List.concat_map
      (fun (l : Differ.law) ->
        List.concat
          (List.mapi
             (fun i g ->
               let first_geometry = i = 0 in
               match l.Differ.check with
               | Differ.Per_spec _ -> if first_geometry then [ l.Differ.name ] else []
               | Differ.Per_geometry _ ->
                   if l.Differ.applies ~first_geometry ~label:"" then
                     [ Printf.sprintf "%s@%d" l.Differ.name i ]
                   else []
               | Differ.Per_cell _ ->
                   List.filter_map
                     (fun (label, _) ->
                       if l.Differ.applies ~first_geometry ~label then
                         Some (Printf.sprintf "%s@%d/%s" l.Differ.name i label)
                       else None)
                     (Differ.configs_for ~ablations:first_geometry g))
             Differ.default_geometries))
      Differ.laws
  in
  let plain = [ "baseline"; "wayplace"; "waymemo"; "waypred"; "filter" ] in
  let first =
    plain
    @ [ "baseline-lru"; "waypred-lru"; "baseline-noelide"; "waymemo-precise" ]
  in
  let on_cells laws cells =
    List.concat_map
      (fun law ->
        List.concat_map
          (fun (i, labels) ->
            List.map (Printf.sprintf "%s@%d/%s" law i) labels)
          cells)
      laws
  in
  let on_geometries laws geometries =
    List.concat_map
      (fun law -> List.map (Printf.sprintf "%s@%d" law) geometries)
      laws
  in
  let expected =
    [ "lint-original"; "lint-placed" ]
    @ on_cells
        [ "counters"; "fastpath"; "baseline-energy"; "oracle" ]
        [ (0, first); (1, plain) ]
    @ on_cells [ "probe"; "windows"; "mp-identity" ] [ (0, first) ]
    @ on_cells [ "windows-tight"; "mp-mix" ] [ (0, [ "baseline"; "wayplace" ]) ]
    @ on_geometries [ "cross"; "soundness" ] [ 0; 1 ]
    @ on_geometries
        [ "soundness-placed"; "contract"; "reserved"; "advise" ]
        [ 0 ]
  in
  Alcotest.(check (list string)) "gating"
    (List.sort compare expected) (List.sort compare actual)

let test_check_seed_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d stable" seed)
        (texts (Differ.check_seed seed))
        (texts (Differ.check_seed seed)))
    [ 0; 1; 2 ]

(* The headline: >= 200 generated programs, every scheme, every
   invariant, deterministically — and well under the 60 s budget. *)
let fuzz_count = 220

let test_fuzz_clean () =
  match Differ.fuzz ~workers:1 ~seed:0 ~count:fuzz_count () with
  | [] -> ()
  | failures ->
      List.iter
        (fun r -> Format.eprintf "%a@." Differ.pp_report r)
        failures;
      Alcotest.failf "%d/%d fuzz seeds failed" (List.length failures)
        fuzz_count

let test_fuzz_parallel_matches_sequential () =
  (* Worker count may change scheduling, never results. *)
  let seq = Differ.fuzz ~workers:1 ~seed:7 ~count:24 () in
  let par = Differ.fuzz ~workers:4 ~seed:7 ~count:24 () in
  Alcotest.(check int) "same failure count" (List.length seq)
    (List.length par);
  Alcotest.(check (list int)) "same failing seeds"
    (List.map (fun r -> r.Differ.seed) seq)
    (List.map (fun r -> r.Differ.seed) par)

(* --- Stats.equal / Stats.pp_diff (the extracted sweep helper) --- *)

let test_stats_equal_and_pp_diff () =
  let a = Stats.create () in
  let b = Stats.create () in
  Alcotest.(check bool) "fresh stats equal" true (Stats.equal a b);
  Alcotest.(check string) "no diff text" "(no differing fields)"
    (String.trim (Format.asprintf "%a" Stats.pp_diff (a, b)));
  b.Stats.icache_hits <- 3;
  Alcotest.(check bool) "one field differs" false (Stats.equal a b);
  let text = Format.asprintf "%a" Stats.pp_diff (a, b) in
  Alcotest.(check bool) "diff names the field" true
    (let needle = "icache_hits" in
     let n = String.length needle in
     let rec scan i =
       i + n <= String.length text
       && (String.sub text i n = needle || scan (i + 1))
     in
     scan 0);
  b.Stats.icache_hits <- 0;
  Alcotest.(check bool) "restored equal" true (Stats.equal a b);
  (* the energy account participates too *)
  Wayplace.Energy.Account.add_icache b.Stats.account 1.0;
  Alcotest.(check bool) "energy differs" false (Stats.equal a b)

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          Alcotest.test_case "oracle = production cache (random traffic)"
            `Quick test_oracle_equivalence;
        ] );
      ( "progen",
        [
          Alcotest.test_case "valid + deterministic" `Quick
            test_progen_valid_and_deterministic;
          Alcotest.test_case "generator spread" `Quick test_progen_spread;
          Alcotest.test_case "shrink candidates smaller + valid" `Quick
            test_shrink_candidates_strictly_smaller;
          Alcotest.test_case "minimize contract" `Quick test_minimize_contract;
        ] );
      ( "differ",
        [
          Alcotest.test_case "injected failure reproduces + shrinks" `Quick
            test_run_seed_with_injected_check;
          Alcotest.test_case "clean seed is None" `Quick
            test_run_seed_clean_is_none;
          Alcotest.test_case "check_seed deterministic" `Quick
            test_check_seed_deterministic;
          Alcotest.test_case
            (Printf.sprintf "%d generated programs, all invariants" fuzz_count)
            `Quick test_fuzz_clean;
          Alcotest.test_case "parallel = sequential" `Quick
            test_fuzz_parallel_matches_sequential;
          Alcotest.test_case "shrinker stays on the first law" `Quick
            test_shrink_stays_on_first_law;
          Alcotest.test_case "law gating over the default grid" `Quick
            test_law_gating;
          Alcotest.test_case "a prepare failure is a violation" `Quick
            test_prepare_failure_is_a_violation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "Stats.equal / pp_diff" `Quick
            test_stats_equal_and_pp_diff;
        ] );
    ]
