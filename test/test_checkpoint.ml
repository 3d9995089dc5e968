(* Crash-safe resume: the trace codec the server's result lines use,
   the checkpoint format, and the CEGAR driver's use of it — a killed
   run must resume from its last completed refinement instead of
   restarting, and a checkpoint of another design must be ignored. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Codec = Rfn_proc.Codec
module Checkpoint = Rfn_proc.Checkpoint
module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance
module F = Rfn_failure

(* ------------------------------------------------------------------ *)
(* Trace codec                                                         *)
(* ------------------------------------------------------------------ *)

let cube_lists t =
  ( Array.map Cube.to_list t.Trace.states,
    Array.map Cube.to_list t.Trace.inputs )

(* The cube codec is private to [Codec]; each cube case goes through a
   one-state trace whose only state cube is the cube under test. *)
let lit s v = Json.List [ Json.Int s; Json.Bool v ]

let with_state_cube c =
  Json.Obj [ ("states", Json.List [ c ]); ("inputs", Json.List []) ]

let test_cube_roundtrip () =
  List.iter
    (fun c ->
      match
        Codec.trace_of_json
          (Codec.trace_to_json (Trace.make ~states:[| c |] ~inputs:[||]))
      with
      | Some t' ->
        Alcotest.(check (list (pair int bool)))
          "cube round-trips" (Cube.to_list c)
          (Cube.to_list t'.Trace.states.(0))
      | None -> Alcotest.fail "cube failed to decode")
    [ Cube.of_list [ (3, true); (7, false); (11, true) ]; Cube.empty ]

let test_cube_decoder_total () =
  let bad =
    [
      (* a contradictory cube: signal 3 both true and false *)
      Json.List [ lit 3 true; lit 3 false ];
      (* wrong arity *)
      Json.List [ Json.List [ Json.Int 3 ] ];
      (* wrong element types *)
      Json.List [ Json.List [ Json.Str "x"; Json.Bool true ] ];
      (* not a list at all *)
      Json.Str "cube";
    ]
  in
  Alcotest.(check bool)
    "one well-formed state cube decodes" true
    (Codec.trace_of_json (with_state_cube (Json.List [ lit 1 true ])) <> None);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "malformed cube decodes to None" true
        (Codec.trace_of_json (with_state_cube c) = None))
    bad

let test_trace_roundtrip () =
  let cube l = Cube.of_list l in
  List.iter
    (fun t ->
      match Codec.trace_of_json (Codec.trace_to_json t) with
      | Some t' ->
        Alcotest.(check bool) "trace round-trips" true
          (cube_lists t = cube_lists t')
      | None -> Alcotest.fail "trace failed to decode")
    [
      Trace.make
        ~states:[| cube [ (1, false) ]; cube [ (1, true); (2, false) ] |]
        ~inputs:[| cube [ (5, true) ] |];
      (* several literals in one cube, and empty cubes *)
      Trace.make
        ~states:[| cube [ (3, true); (7, false); (11, true) ]; Cube.empty |]
        ~inputs:[| Cube.empty; cube [ (4, false) ] |];
    ]

let test_trace_decoder_total () =
  let cube = Json.List [ lit 1 true ] in
  let bad =
    [
      (* invariant violation: 1 state needs 0 or 1 input cubes *)
      Json.Obj
        [
          ("states", Json.List [ cube ]);
          ("inputs", Json.List [ cube; cube; cube ]);
        ];
      (* empty trace *)
      Json.Obj [ ("states", Json.List []); ("inputs", Json.List []) ];
      (* missing field *)
      Json.Obj [ ("states", Json.List [ cube ]) ];
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "malformed trace decodes to None" true
        (Codec.trace_of_json j = None))
    bad

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let temp_checkpoint () =
  let file = Filename.temp_file "rfn_ck" ".json" in
  Sys.remove file;
  file

let test_checkpoint_roundtrip () =
  let file = temp_checkpoint () in
  let ck =
    Checkpoint.make ~netlist_hash:"abc123" ~property:"bad" ~iteration:4
      ~seconds_used:1.25 ~escalation:8
      ~regs:[ "cnt_0"; "cnt_1"; "full" ]
      ~provenance:[ Helpers.sample_provenance ] ()
  in
  Checkpoint.save file ck;
  (match Checkpoint.load file with
  | Ok ck' ->
    Alcotest.(check bool) "round-trips exactly" true (ck' = ck);
    Alcotest.(check bool)
      "validates against its own run" true
      (Checkpoint.validate ck' ~netlist_hash:"abc123" ~property:"bad" = Ok ())
  | Error e -> Alcotest.fail ("load failed: " ^ e));
  Sys.remove file

let test_checkpoint_validation_rejects () =
  let ck =
    Checkpoint.make ~netlist_hash:"abc123" ~property:"bad" ~iteration:1
      ~seconds_used:0. ~escalation:1 ~regs:[] ~provenance:[] ()
  in
  let rejected = function Error _ -> true | Ok () -> false in
  Alcotest.(check bool)
    "stale netlist rejected" true
    (rejected (Checkpoint.validate ck ~netlist_hash:"other" ~property:"bad"));
  Alcotest.(check bool)
    "wrong property rejected" true
    (rejected (Checkpoint.validate ck ~netlist_hash:"abc123" ~property:"ok"))

let test_checkpoint_load_errors () =
  let fails file =
    match Checkpoint.load file with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool)
    "missing file is an Error" true
    (fails "/nonexistent/rfn_ck.json");
  let file = Filename.temp_file "rfn_ck" ".json" in
  let put s =
    let oc = open_out file in
    output_string oc s;
    close_out oc
  in
  put "{ torn json";
  Alcotest.(check bool) "torn JSON is an Error" true (fails file);
  put "{\"version\": 999}";
  Alcotest.(check bool) "unknown version is an Error" true (fails file);
  Sys.remove file

let test_hash_discriminates () =
  let a = Checkpoint.hash_circuit (Helpers.counter_design ~width:3 ~limit:7) in
  let a' = Checkpoint.hash_circuit (Helpers.counter_design ~width:3 ~limit:7) in
  let b = Checkpoint.hash_circuit (Helpers.counter_design ~width:4 ~limit:7) in
  Alcotest.(check string) "stable across rebuilds" a a';
  Alcotest.(check bool) "differs across designs" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Resume in the CEGAR driver                                          *)
(* ------------------------------------------------------------------ *)

(* Injection pinned off so the differentials stay meaningful under the
   chaos CI job (which sets RFN_INJECT_FAULTS for the whole suite). *)
let config ?checkpoint ?(resume = false) ?(max_iterations = 32) () =
  {
    Rfn.default_config with
    Rfn.max_iterations;
    node_limit = 500_000;
    mc_max_steps = 200;
    inject = Some (fun _ -> None);
    checkpoint;
    resume;
  }

let test_checkpoint_resume_differential () =
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let circuit = fifo.Rfn_designs.Fifo.circuit in
  let prop = fifo.Rfn_designs.Fifo.psh_hf in
  let file = temp_checkpoint () in
  (* Reference: uninterrupted run. fifo/psh_hf needs >1 iteration, so
     killing after the first leaves real progress behind. *)
  let ref_outcome, ref_stats = Rfn.verify ~config:(config ()) circuit prop in
  let ref_iters = List.length ref_stats.Rfn.provenance in
  Alcotest.(check bool) "reference run refines" true (ref_iters > 1);
  (* "Kill" the run after one iteration: the iteration cap aborts it,
     which keeps the checkpoint on disk. *)
  (match
     Rfn.verify
       ~config:(config ~checkpoint:file ~max_iterations:1 ())
       circuit prop
   with
  | Rfn.Aborted f, _ ->
    Alcotest.(check bool) "killed on the cap" true (f.F.resource = F.Iterations)
  | _ -> Alcotest.fail "one iteration cannot settle fifo/psh_hf");
  Alcotest.(check bool) "abort kept the checkpoint" true (Sys.file_exists file);
  (* Resume: same verdict, iteration numbering continues, and strictly
     fewer iterations run in this process than the reference needed. *)
  let outcome, stats =
    Rfn.verify ~config:(config ~checkpoint:file ~resume:true ()) circuit prop
  in
  (match (outcome, ref_outcome) with
  | Rfn.Proved, Rfn.Proved -> ()
  | _ -> Alcotest.fail "resumed verdict diverges from the reference");
  Alcotest.(check bool)
    "resume skipped completed iterations" true
    (stats.Rfn.resumed_iterations > 0);
  let ran = List.length stats.Rfn.provenance - stats.Rfn.resumed_iterations in
  Alcotest.(check bool)
    "strictly fewer iterations than a fresh run" true (ran < ref_iters);
  Alcotest.(check (list int))
    "provenance covers the whole run, numbered from 1"
    (List.init (List.length stats.Rfn.provenance) (fun i -> i + 1))
    (List.map (fun p -> p.Provenance.iter) stats.Rfn.provenance);
  Alcotest.(check bool)
    "conclusive verdict retired the checkpoint" false (Sys.file_exists file)

let test_stale_checkpoint_starts_fresh () =
  (* A checkpoint from a different design must be ignored (with a
     warning), not silently re-seed the abstraction. *)
  let file = temp_checkpoint () in
  let ck =
    Checkpoint.make ~netlist_hash:"not-this-design" ~property:"at_limit"
      ~iteration:7 ~seconds_used:0. ~escalation:1
      ~regs:[ "no_such_register" ]
      ~provenance:[] ()
  in
  Checkpoint.save file ck;
  let circuit = Helpers.counter_design ~width:3 ~limit:7 in
  let prop = Property.of_output circuit "at_limit" in
  let outcome, stats =
    Rfn.verify ~config:(config ~checkpoint:file ~resume:true ()) circuit prop
  in
  Alcotest.(check int) "nothing was resumed" 0 stats.Rfn.resumed_iterations;
  (match outcome with
  | Rfn.Falsified _ -> ()
  | _ -> Alcotest.fail "counter3/at_limit should still be falsified");
  if Sys.file_exists file then Sys.remove file

let tests =
  [
    Alcotest.test_case "cube codec round-trips" `Quick test_cube_roundtrip;
    Alcotest.test_case "cube decoder is total" `Quick test_cube_decoder_total;
    Alcotest.test_case "trace codec round-trips" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace decoder is total" `Quick test_trace_decoder_total;
    Alcotest.test_case "checkpoint round-trips" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint validation rejects mismatches" `Quick
      test_checkpoint_validation_rejects;
    Alcotest.test_case "checkpoint load never raises" `Quick
      test_checkpoint_load_errors;
    Alcotest.test_case "netlist hash discriminates designs" `Quick
      test_hash_discriminates;
    Alcotest.test_case "checkpoint, kill, resume: same verdict, fewer \
                        iterations"
      `Quick test_checkpoint_resume_differential;
    Alcotest.test_case "a stale checkpoint starts fresh" `Quick
      test_stale_checkpoint_starts_fresh;
  ]

(* The suite is named after the [rfn_proc] library that holds [Codec]
   and [Checkpoint]. *)
let () = Alcotest.run "proc" [ ("proc", tests) ]
