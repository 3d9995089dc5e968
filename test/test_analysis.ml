(* Invariant inference (Rfn_analysis): mining + inductive-proving
   units, soundness against brute-force reachability, the
   merge-equivalences rewrite, and the end-to-end differential — every
   zoo verdict and counterexample is identical with --analyze on and
   off, across the engine matrix and under chaos. *)

open Rfn_circuit
module B = Circuit.Builder
module Analysis = Rfn_analysis.Analysis
module Rfn = Rfn_core.Rfn
module Concretize = Rfn_core.Concretize
module Sat_bmc = Rfn_core.Sat_bmc
module Supervisor = Rfn_core.Supervisor

(* SAT unrollings check their CNF when the suite runs under RFN_CHECK. *)
let env_check = Rfn_lint.Check.env_enabled ()

(* ------------------------------------------------------------------ *)
(* Hand-built designs                                                  *)
(* ------------------------------------------------------------------ *)

(* Constant chain: r0 <- r1 <- ... <- r_(k-1) <- 0, all init 0. Every
   register is provably stuck at 0; "bad" = r0 & go can never fire. *)
let const_chain_design ~k =
  let b = B.create () in
  let go = B.input b "go" in
  let regs =
    Array.init k (fun i -> B.reg b ~init:`Zero (Printf.sprintf "r%d" i))
  in
  for i = 0 to k - 2 do
    B.connect b regs.(i) regs.(i + 1)
  done;
  B.connect b regs.(k - 1) (B.const b false);
  B.output b "bad" (B.and2 b regs.(0) go);
  B.finalize b

(* Twin registers clocked from the same function: inductively
   equivalent, and rn is their complement. *)
let twin_design () =
  let b = B.create () in
  let i0 = B.input b "i0" in
  let ra = B.reg b ~init:`Zero "ra" in
  let rb = B.reg b ~init:`Zero "rb" in
  let rn = B.reg b ~init:`One "rn" in
  let nxt = B.xor2 b i0 ra in
  B.connect b ra nxt;
  B.connect b rb nxt;
  B.connect b rn (B.not_ b nxt);
  B.output b "both" (B.and2 b ra rb);
  B.output b "neither" (B.and2 b (B.not_ b ra) rn);
  B.finalize b

(* A 3-stage one-hot token ring; "collide" asserts two stages at once
   and is unreachable. *)
let ring_design () =
  let b = B.create () in
  let s0 = B.reg b ~init:`One "s0" in
  let s1 = B.reg b ~init:`Zero "s1" in
  let s2 = B.reg b ~init:`Zero "s2" in
  B.connect b s0 s2;
  B.connect b s1 s0;
  B.connect b s2 s1;
  B.output b "collide"
    (B.or_l b [ B.and2 b s0 s1; B.and2 b s0 s2; B.and2 b s1 s2 ]);
  B.finalize b

(* ------------------------------------------------------------------ *)
(* Mining + proving units                                              *)
(* ------------------------------------------------------------------ *)

let has_const a r v =
  List.exists
    (function
      | Analysis.Const_reg { reg; value } -> reg = r && value = v
      | _ -> false)
    a.Analysis.invariants

let test_const_chain () =
  let c = const_chain_design ~k:4 in
  let a = Analysis.run c in
  Array.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s proved stuck at 0" (Circuit.name c r))
        true (has_const a r false))
    c.Circuit.registers;
  Alcotest.(check int)
    "every reported invariant counted as proved"
    (List.length a.Analysis.invariants)
    a.Analysis.stats.Analysis.proved

let test_twin_equiv () =
  let c = twin_design () in
  let a = Analysis.run c in
  let ra = Circuit.find c "ra"
  and rb = Circuit.find c "rb"
  and rn = Circuit.find c "rn" in
  let equiv k d p =
    List.exists
      (function
        | Analysis.Equiv { keep; drop; phase } ->
          keep = k && drop = d && phase = p
        | _ -> false)
      a.Analysis.invariants
  in
  Alcotest.(check bool) "rb equals ra" true (equiv ra rb false);
  Alcotest.(check bool) "rn is the complement of ra" true (equiv ra rn true)

let test_ring_one_hot () =
  let c = ring_design () in
  let a = Analysis.run c in
  let regs = Array.to_list c.Circuit.registers in
  let one_hot =
    List.exists
      (function
        | Analysis.One_hot rs -> List.for_all (fun r -> Array.mem r rs) regs
        | _ -> false)
      a.Analysis.invariants
  in
  Alcotest.(check bool) "the ring is proved one-hot" true one_hot

(* A candidate that simulation proposes but induction cannot prove must
   be dropped: a sticky register is not stuck-at-0 even if short random
   runs never raise it. *)
let test_unproven_dropped () =
  let b = B.create () in
  let i0 = B.input b "i0" in
  let i1 = B.input b "i1" in
  let r0 = B.reg b ~init:`Zero "r0" in
  B.connect b r0 (B.or2 b r0 (B.and2 b i0 i1));
  B.output b "o" r0;
  let c = B.finalize b in
  let a = Analysis.run c in
  Alcotest.(check bool) "sticky r0 not reported constant" false
    (has_const a r0 false);
  Alcotest.(check bool) "r0 certainly not stuck at 1" false
    (has_const a r0 true)

(* refutes_pins: pins contradicting a proven constant are doomed in
   that frame; agreeing pins are not. *)
let test_refutes_pins () =
  let c = const_chain_design ~k:2 in
  let a = Analysis.run c in
  let r0 = Circuit.find c "r0" in
  Alcotest.(check bool)
    "pinning r0=1 contradicts the proven constant" true
    (Analysis.refutes_pins a [ (0, r0, true) ]);
  Alcotest.(check bool)
    "pinning r0=0 is consistent" false
    (Analysis.refutes_pins a [ (0, r0, false) ]);
  Alcotest.(check bool)
    "a later frame still refutes" true
    (Analysis.refutes_pins a [ (3, r0, true); (0, r0, false) ])

(* ------------------------------------------------------------------ *)
(* Soundness: every reported invariant holds in every reachable state  *)
(* ------------------------------------------------------------------ *)

let check_sound name circuit =
  let a = Analysis.run circuit in
  let reachable = Helpers.explicit_reachable circuit in
  let regs = circuit.Circuit.registers in
  let inputs = circuit.Circuit.inputs in
  let nins = Array.length inputs in
  Hashtbl.iter
    (fun code () ->
      let state r =
        let rec idx i = if regs.(i) = r then i else idx (i + 1) in
        code land (1 lsl idx 0) <> 0
      in
      for iv = 0 to (1 lsl nins) - 1 do
        let input s =
          let rec idx i = if inputs.(i) = s then i else idx (i + 1) in
          iv land (1 lsl idx 0) <> 0
        in
        let values = Circuit.eval circuit ~input ~state in
        if not (Analysis.holds a ~state ~values:(fun s -> values.(s))) then
          Alcotest.failf
            "%s: an invariant is violated in reachable state %d (inputs %d)"
            name code iv
      done)
    reachable;
  a

let test_soundness_zoo () =
  List.iter
    (fun (name, c) -> ignore (check_sound name c))
    [
      ("const_chain", const_chain_design ~k:4);
      ("twin", twin_design ());
      ("ring", ring_design ());
      ("arbiter", Helpers.arbiter_design ());
      ("counter3", Helpers.counter_design ~width:3 ~limit:7);
      ("deep_bug2", Helpers.deep_bug_design ~width:2);
    ]

let qcheck_soundness =
  QCheck.Test.make ~count:40
    ~name:"analysis invariants hold on all reachable states"
    (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:10)
    (fun rc ->
      ignore (check_sound "random" rc.Helpers.circuit);
      true)

(* ------------------------------------------------------------------ *)
(* merge_equivalences                                                  *)
(* ------------------------------------------------------------------ *)

(* Drive both circuits from their initial states with the same
   (deterministic pseudo-random) stimuli and compare every declared
   output cycle by cycle. Inputs are matched by name: the merge
   renumbers signals but never deletes a primary input. *)
let outputs_agree c c' ~cycles ~seed =
  let names = List.map fst c.Circuit.outputs in
  let rand = ref (seed lor 1) in
  let next_bit () =
    rand := ((!rand * 1103515245) + 12345) land 0x3FFFFFFF;
    !rand land 0x10000 <> 0
  in
  let state0 circuit r =
    match Circuit.node circuit r with
    | Circuit.Reg { init = `One; _ } -> true
    | _ -> false
  in
  let input_names = Array.map (Circuit.name c) c.Circuit.inputs in
  let rec go cycle st0 st0' =
    if cycle >= cycles then true
    else begin
      let stim = Hashtbl.create 7 in
      Array.iter (fun n -> Hashtbl.replace stim n (next_bit ())) input_names;
      let input circuit s =
        match Hashtbl.find_opt stim (Circuit.name circuit s) with
        | Some v -> v
        | None -> false
      in
      let values, next = Circuit.step c ~input:(input c) ~state:st0 in
      let values', next' = Circuit.step c' ~input:(input c') ~state:st0' in
      List.for_all
        (fun n -> values.(Circuit.output c n) = values'.(Circuit.output c' n))
        names
      && go (cycle + 1) next next'
    end
  in
  go 0 (state0 c) (state0 c')

let qcheck_merge_preserves_outputs =
  QCheck.Test.make ~count:40
    ~name:"merge_equivalences preserves observable behaviour"
    (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:12)
    (fun rc ->
      let c = rc.Helpers.circuit in
      let a = Analysis.run c in
      let c', _, _ = Opt.merge_equivalences c (Analysis.equiv_pairs a) in
      List.for_all (fun seed -> outputs_agree c c' ~cycles:16 ~seed) [ 1; 2; 3 ])

let test_merge_twin () =
  let c = twin_design () in
  let a = Analysis.run c in
  let c', lookup, applied = Opt.merge_equivalences c (Analysis.equiv_pairs a) in
  Alcotest.(check bool) "merged at least rb and rn" true (applied >= 2);
  Alcotest.(check bool)
    "fewer registers after the merge" true
    (Array.length c'.Circuit.registers < Array.length c.Circuit.registers);
  let rb = Circuit.find c "rb" in
  Alcotest.(check bool) "rb is gone from the signal map" true
    (lookup rb = None);
  Alcotest.(check bool)
    "twin outputs agree over 64 random cycles" true
    (outputs_agree c c' ~cycles:64 ~seed:7)

(* ------------------------------------------------------------------ *)
(* Consumers never see refuted candidates                              *)
(* ------------------------------------------------------------------ *)

let test_consumers_see_proved_only () =
  List.iter
    (fun (name, c) ->
      let a = Analysis.run c in
      let proved = a.Analysis.invariants in
      Alcotest.(check int)
        (name ^ ": stats.proved equals the reported invariants")
        (List.length proved) a.Analysis.stats.Analysis.proved;
      Alcotest.(check int)
        (name ^ ": equiv_pairs come from the proved Equivs only")
        (List.length
           (List.filter
              (function Analysis.Equiv _ -> true | _ -> false)
              proved))
        (List.length (Analysis.equiv_pairs a));
      List.iter
        (fun inv ->
          Alcotest.(check bool)
            (name ^ ": clause literals stay within the invariant's signals")
            true
            (List.for_all
               (fun cls ->
                 cls <> []
                 && List.for_all
                      (fun (s, _) -> List.mem s (Analysis.signals_of inv))
                      cls)
               (Analysis.clauses_of inv)))
        proved)
    [
      ("counter", Helpers.counter_design ~width:3 ~limit:7);
      ("arbiter", Helpers.arbiter_design ());
      ( "fifo",
        (Rfn_designs.Fifo.(make ~params:small ())).Rfn_designs.Fifo.circuit );
    ]

(* A hand-forged report with a *wrong* invariant would prune a
   genuinely reachable pin — exactly what must never happen, and what
   [run]'s output (validated wholesale by the soundness suite above)
   is guaranteed not to do. *)
let test_wrong_invariant_would_mislead () =
  let c = Helpers.counter_design ~width:2 ~limit:3 in
  let r0 = c.Circuit.registers.(0) in
  let forged =
    {
      Analysis.invariants = [ Analysis.Const_reg { reg = r0; value = false } ];
      stats = { Analysis.candidates = 1; proved = 1; refuted = 0; unknown = 0 };
      seconds = 0.0;
    }
  in
  Alcotest.(check bool)
    "the forged fact refutes a reachable pin" true
    (Analysis.refutes_pins forged [ (1, r0, true) ]);
  let real = Analysis.run c in
  Alcotest.(check bool)
    "the proved facts keep the reachable pin" false
    (Analysis.refutes_pins real [ (1, r0, true) ])

(* ------------------------------------------------------------------ *)
(* Engine differential: --analyze must not change verdicts or traces   *)
(* ------------------------------------------------------------------ *)

let zoo () =
  Helpers.zoo ()
  @ List.map
      (fun (name, c, out) -> (name, c, Property.of_output c out))
      [
        ("const_chain/bad", const_chain_design ~k:6, "bad");
        ("ring/collide", ring_design (), "collide");
      ]

let trace_repr c t = Format.asprintf "%a" (Trace.pp ~names:(Circuit.name c)) t

(* [mk_config] builds a fresh config per run so a chaos injection hook
   (which faults each site once per hook) is not half-consumed by the
   first run. Injection defaults to off, not to RFN_INJECT_FAULTS, so
   the plain differential stays deterministic under the chaos CI job. *)
let check_parity name mk_config circuit prop =
  let run analyze =
    let config = { (mk_config ()) with Rfn.analyze } in
    fst (Rfn.verify ~config circuit prop)
  in
  let off = run false in
  let on = run true in
  match (off, on) with
  | Rfn.Proved, Rfn.Proved -> ()
  | Rfn.Falsified t0, Rfn.Falsified t1 ->
    Alcotest.(check string)
      (name ^ ": identical counterexample")
      (trace_repr circuit t0) (trace_repr circuit t1)
  | Rfn.Aborted _, Rfn.Aborted _ -> ()
  | o0, o1 ->
    let show = function
      | Rfn.Proved -> "Proved"
      | Rfn.Falsified t -> Printf.sprintf "Falsified(len %d)" (Trace.length t)
      | Rfn.Aborted f -> "Aborted: " ^ Rfn_failure.to_string f
    in
    Alcotest.failf "%s: verdicts diverge: off=%s on=%s" name (show o0)
      (show o1)

let base_config ?(inject = Some (fun _ -> None)) ~engines () =
  { Rfn.default_config with Rfn.engines; inject; max_iterations = 32 }

let test_verify_parity_engines () =
  List.iter
    (fun engines ->
      List.iter
        (fun (name, circuit, prop) ->
          check_parity
            (Printf.sprintf "%s[%s]" name (Rfn.engines_to_string engines))
            (fun () -> base_config ~engines ())
            circuit prop)
        (zoo ()))
    [ Rfn.Atpg_only; Rfn.Sat_only; Rfn.Portfolio ]

let test_verify_parity_chaos () =
  (* all-site fault injection: the supervisor ladders recover and the
     analyze differential still holds *)
  List.iter
    (fun (name, circuit, out) ->
      let prop = Property.of_output circuit out in
      check_parity (name ^ "[chaos]")
        (fun () ->
          base_config
            ~inject:(Supervisor.inject_of_spec "all")
            ~engines:Rfn.Portfolio ())
        circuit prop)
    [
      ("arbiter/bad", Helpers.arbiter_design (), "bad");
      ("deep_bug2/bad", Helpers.deep_bug_design ~width:2, "bad");
    ]

let test_sat_bmc_with_invariants () =
  List.iter
    (fun (name, circuit, prop) ->
      let bad = prop.Property.bad in
      let a = Analysis.run circuit in
      let plain, _ =
        Sat_bmc.falsify
          (Sat_bmc.unrolling ~check:env_check circuit ~bad)
          ~max_depth:10
      in
      let with_inv, _ =
        Sat_bmc.falsify
          (Sat_bmc.unrolling ~analysis:a ~check:env_check circuit
             ~bad)
          ~max_depth:10
      in
      match (plain, with_inv) with
      | Concretize.Found t0, Concretize.Found t1 ->
        Alcotest.(check int)
          (name ^ ": same counterexample depth with invariant clauses")
          (Trace.length t0) (Trace.length t1)
      | Concretize.Not_found_here, Concretize.Not_found_here -> ()
      | Concretize.Gave_up _, Concretize.Gave_up _ -> ()
      | _ -> Alcotest.failf "%s: Sat_bmc outcome changed under invariants" name)
    (zoo ())

let test_guided_prefilter_short_circuits () =
  let c = const_chain_design ~k:3 in
  let bad = Circuit.output c "bad" in
  let a = Analysis.run c in
  let r0 = Circuit.find c "r0" in
  (* guidance pinning r0=1 contradicts the proven stuck-at-0 *)
  let doomed =
    Trace.make
      ~states:[| Cube.of_list [ (r0, true) ] |]
      ~inputs:[| Cube.empty |]
  in
  (match Concretize.guided ~analysis:a c ~bad ~abstract_trace:doomed with
  | Concretize.Not_found_here, stats ->
    Alcotest.(check int) "no search happened" 0 stats.Rfn_atpg.Atpg.decisions
  | _ -> Alcotest.fail "doomed guidance should answer Not_found_here");
  (* consistent guidance searches normally (and finds nothing: bad
     needs r0=1) *)
  let fine =
    Trace.make
      ~states:[| Cube.of_list [ (r0, false) ] |]
      ~inputs:[| Cube.empty |]
  in
  match Concretize.guided ~analysis:a c ~bad ~abstract_trace:fine with
  | Concretize.Not_found_here, _ -> ()
  | _ -> Alcotest.fail "consistent guidance searches normally"

(* The bench differential's claim, asserted as a test: on the constant
   chain the invariant care set closes the abstract fixpoint without
   any refinement, so --analyze takes strictly fewer CEGAR
   iterations. *)
let test_const_chain_fewer_iterations () =
  let c = const_chain_design ~k:6 in
  let prop = Property.of_output c "bad" in
  let run analyze =
    match
      Rfn.verify
        ~config:{ (base_config ~engines:Rfn.Atpg_only ()) with Rfn.analyze }
        c prop
    with
    | Rfn.Proved, stats -> List.length stats.Rfn.provenance
    | _ -> Alcotest.fail "const chain must prove"
  in
  let off = run false and on = run true in
  Alcotest.(check bool)
    (Printf.sprintf "fewer iterations with analysis (%d < %d)" on off)
    true (on < off)

(* golden/netlist.jsonl: for every zoo design and committed netlist,
   the Opt.simplify report and netlist and the Analysis.run JSON
   (without its wall-clock seconds), as recorded when Opt, Analysis
   and lint each ran their own constant-register fixpoint. *)
let test_golden_netlists () =
  let module Json = Rfn_obs.Json in
  let designs =
    List.fold_left
      (fun acc (name, c, _) ->
        (* the zoo lists the small FIFO once per property *)
        match String.split_on_char '/' name with
        | design :: _ when not (List.mem_assoc design acc) ->
          (design, c) :: acc
        | _ -> acc)
      [] (Helpers.zoo ())
    |> List.rev
  in
  let cases =
    designs
    @ List.map
        (fun f -> (f, Netlist_io.load (Filename.concat "../examples" f)))
        [ "fifo.bench"; "passing_token.aag"; "passing_token.aig" ]
  in
  let ic = open_in "golden/netlist.jsonl" in
  List.iter
    (fun (name, c) ->
      let expected = Json.of_string (input_line ic) in
      let field k =
        Option.get (Option.bind (Json.member k expected) Json.to_str)
      in
      Alcotest.(check string) (name ^ ": case") name (field "case");
      let c', _, r = Opt.simplify c in
      Alcotest.(check string) (name ^ ": simplify report") (field "simplify")
        (Printf.sprintf
           "gates: %d -> %d; registers: %d -> %d; %d constants folded"
           r.Opt.gates_before r.Opt.gates_after r.Opt.registers_before
           r.Opt.registers_after r.Opt.constants_folded);
      Alcotest.(check string) (name ^ ": simplified netlist") (field "netlist")
        (Bench_io.to_string c');
      let analysis =
        match Analysis.to_json (Analysis.run c) with
        | Json.Obj fields -> Json.Obj (List.remove_assoc "seconds" fields)
        | j -> j
      in
      Alcotest.(check string) (name ^ ": analysis") (field "analysis")
        (Json.to_string analysis))
    cases;
  close_in ic

let tests =
  [
    Alcotest.test_case "constant chain proved" `Quick test_const_chain;
    Alcotest.test_case "twin equivalences proved" `Quick test_twin_equiv;
    Alcotest.test_case "token ring one-hot" `Quick test_ring_one_hot;
    Alcotest.test_case "non-inductive candidate dropped" `Quick
      test_unproven_dropped;
    Alcotest.test_case "refutes_pins" `Quick test_refutes_pins;
    Alcotest.test_case "soundness on the zoo" `Quick test_soundness_zoo;
    QCheck_alcotest.to_alcotest qcheck_soundness;
    QCheck_alcotest.to_alcotest qcheck_merge_preserves_outputs;
    Alcotest.test_case "merge on the twin design" `Quick test_merge_twin;
    Alcotest.test_case "consumers see proved facts only" `Quick
      test_consumers_see_proved_only;
    Alcotest.test_case "a leaked refuted fact would mislead" `Quick
      test_wrong_invariant_would_mislead;
    Alcotest.test_case "verify parity across engines" `Quick
      test_verify_parity_engines;
    Alcotest.test_case "verify parity under chaos" `Quick
      test_verify_parity_chaos;
    Alcotest.test_case "sat-bmc parity with invariant clauses" `Quick
      test_sat_bmc_with_invariants;
    Alcotest.test_case "guided pre-filter short-circuit" `Quick
      test_guided_prefilter_short_circuits;
    Alcotest.test_case "const chain: strictly fewer iterations" `Quick
      test_const_chain_fewer_iterations;
    Alcotest.test_case "golden simplify and analysis" `Quick
      test_golden_netlists;
  ]

let () = Alcotest.run "analysis" [ ("analysis", tests) ]
