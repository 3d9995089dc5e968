(* End-to-end smoke tests for the full RFN pipeline on small designs
   where brute force can confirm the verdict. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry

let quick_config =
  {
    Rfn.default_config with
    Rfn.max_iterations = 32;
    node_limit = 500_000;
    mc_max_steps = 200;
  }

let check_verify name circuit out expected () =
  let prop = Property.of_output circuit out in
  let outcome, stats = Rfn.verify ~config:quick_config circuit prop in
  (match (outcome, expected) with
  | Rfn.Proved, `True -> ()
  | Rfn.Falsified t, `False ->
    Alcotest.(check bool)
      (name ^ ": counterexample replays")
      true
      (Sim3v.replay_concrete circuit t ~bad:prop.Property.bad)
  | Rfn.Proved, `False -> Alcotest.fail (name ^ ": proved a false property")
  | Rfn.Falsified _, `True ->
    Alcotest.fail (name ^ ": falsified a true property")
  | Rfn.Aborted why, _ ->
    Alcotest.fail (name ^ ": aborted: " ^ Rfn_failure.to_string why));
  Alcotest.(check bool) (name ^ ": at least one iteration") true
    (List.length stats.Rfn.provenance >= 1)

let test_arbiter_mutex () =
  let c = Helpers.arbiter_design () in
  check_verify "arbiter" c "bad" `True ()

let test_counter_limit_reachable () =
  (* A 3-bit counter reaches 7 -> property False, trace ~8 cycles. *)
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  check_verify "counter-reach" c "at_limit" `False ()

let test_deep_bug () =
  let c = Helpers.deep_bug_design ~width:3 in
  check_verify "deep-bug" c "bad" `False ()

let test_cegar_phase_spans () =
  (* A full verify on the FIFO must trace every CEGAR phase: abstract
     model checking, hybrid trace extraction, concretization and
     refinement all produce spans. *)
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let outcome, stats =
    Rfn.verify ~config:quick_config fifo.Rfn_designs.Fifo.circuit
      fifo.Rfn_designs.Fifo.psh_hf
  in
  (match outcome with
  | Rfn.Proved -> ()
  | Rfn.Falsified _ -> Alcotest.fail "fifo: psh_hf should be proved"
  | Rfn.Aborted why ->
    Alcotest.fail ("fifo: aborted: " ^ Rfn_failure.to_string why));
  let iterations = List.length stats.Rfn.provenance in
  Alcotest.(check bool) "fifo refines at least once" true (iterations > 1);
  List.iter
    (fun phase ->
      match Telemetry.span_stats phase with
      | Some (calls, _) ->
        Alcotest.(check bool) (phase ^ " spanned") true (calls >= 1)
      | None -> Alcotest.fail ("no span recorded for " ^ phase))
    [ "rfn.abstract_mc"; "rfn.hybrid"; "rfn.concretize"; "rfn.refine" ];
  (* one abstract-MC span per iteration, and the engine counters the
     paper's tables are built from must be live *)
  (match Telemetry.span_stats "rfn.abstract_mc" with
  | Some (calls, _) ->
    Alcotest.(check int) "one abstract-MC span per iteration" iterations calls
  | None -> assert false);
  Alcotest.(check bool) "BDD cache counters live" true
    (Telemetry.counter_value (Telemetry.counter "bdd.cache_misses") > 0);
  Alcotest.(check bool) "ATPG solve counter live" true
    (Telemetry.counter_value (Telemetry.counter "atpg.solves") > 0)

let test_agrees_with_brute_force () =
  (* Random designs: RFN's verdict must match explicit-state search. *)
  let count = ref 0 in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:40 ~name:"rfn agrees with brute force"
       (Helpers.arbitrary_circuit ~nins:3 ~nregs:4 ~ngates:12)
       (fun rc ->
         incr count;
         let prop = Property.make ~name:"out" ~bad:rc.Helpers.out in
         let expected =
           Helpers.explicit_violates rc.Helpers.circuit ~bad:rc.Helpers.out
         in
         match Rfn.verify ~config:quick_config rc.Helpers.circuit prop with
         | Rfn.Proved, _ -> not expected
         | Rfn.Falsified t, _ ->
           expected
           && Sim3v.replay_concrete rc.Helpers.circuit t ~bad:rc.Helpers.out
         | Rfn.Aborted why, _ ->
           QCheck.Test.fail_report ("aborted: " ^ Rfn_failure.to_string why)))

let tests =
  [
    Alcotest.test_case "arbiter mutex is proved" `Quick test_arbiter_mutex;
    Alcotest.test_case "counter limit is falsified" `Quick
      test_counter_limit_reachable;
    Alcotest.test_case "deep planted bug is found" `Quick test_deep_bug;
    Alcotest.test_case "all CEGAR phases produce spans" `Quick
      test_cegar_phase_spans;
    Alcotest.test_case "verdicts agree with brute force" `Slow
      test_agrees_with_brute_force;
  ]

let () = Alcotest.run "pipeline" [ ("rfn", tests) ]
