(* Process-isolated racing and crash-safe resume.

   Three layers under test: the generic worker pool (fork, JSONL
   protocol, watchdog, fault injection), the checkpoint format, and the
   CEGAR driver's use of both — racing must agree with the sequential
   ladder on verdicts, a murdered worker must degrade to the fallback
   rungs without changing the answer, and a killed run must resume from
   its last completed refinement instead of restarting. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Supervisor = Rfn_core.Supervisor
module Proc = Rfn_proc.Proc
module Codec = Rfn_proc.Codec
module Checkpoint = Rfn_proc.Checkpoint
module Json = Rfn_obs.Json
module Telemetry = Rfn_obs.Telemetry
module Provenance = Rfn_obs.Provenance
module Sim3v = Rfn_sim3v.Sim3v
module F = Rfn_failure

let counter name = Telemetry.counter_value (Telemetry.counter name)

(* A fast-killing watchdog for the hang test: 20 ms heartbeats, 0.2 s
   of tolerated silence, 0.1 s between SIGTERM and SIGKILL. *)
let quick_policy =
  {
    Proc.default_policy with
    Proc.enabled = true;
    heartbeat_interval = 0.02;
    heartbeat_grace = 0.2;
    kill_grace = 0.1;
  }

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)
(* ------------------------------------------------------------------ *)

let test_cube_roundtrip () =
  let c = Cube.of_list [ (3, true); (7, false); (11, true) ] in
  (match Codec.cube_of_json (Codec.cube_to_json c) with
  | Some c' ->
    Alcotest.(check (list (pair int bool)))
      "cube round-trips" (Cube.to_list c) (Cube.to_list c')
  | None -> Alcotest.fail "cube failed to decode");
  match Codec.cube_of_json (Codec.cube_to_json Cube.empty) with
  | Some c' -> Alcotest.(check bool) "empty cube" true (Cube.is_empty c')
  | None -> Alcotest.fail "empty cube failed to decode"

let test_cube_decoder_total () =
  let bad =
    [
      (* a contradictory cube: signal 3 both true and false *)
      Json.List
        [
          Json.List [ Json.Int 3; Json.Bool true ];
          Json.List [ Json.Int 3; Json.Bool false ];
        ];
      (* wrong arity *)
      Json.List [ Json.List [ Json.Int 3 ] ];
      (* wrong element types *)
      Json.List [ Json.List [ Json.Str "x"; Json.Bool true ] ];
      (* not a list at all *)
      Json.Str "cube";
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "malformed cube decodes to None" true
        (Codec.cube_of_json j = None))
    bad

let test_trace_roundtrip () =
  let cube l = Cube.of_list l in
  let t =
    Trace.make
      ~states:[| cube [ (1, false) ]; cube [ (1, true); (2, false) ] |]
      ~inputs:[| cube [ (5, true) ] |]
  in
  match Codec.trace_of_json (Codec.trace_to_json t) with
  | Some t' ->
    Alcotest.(check int) "same length" (Trace.length t) (Trace.length t');
    Array.iteri
      (fun i s ->
        Alcotest.(check (list (pair int bool)))
          "state cubes agree" (Cube.to_list s)
          (Cube.to_list t'.Trace.states.(i)))
      t.Trace.states
  | None -> Alcotest.fail "trace failed to decode"

let test_trace_decoder_total () =
  let cube = Codec.cube_to_json (Cube.of_list [ (1, true) ]) in
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
(* The worker pool                                                     *)
(* ------------------------------------------------------------------ *)

let payload v = Json.Obj [ ("v", Json.Int v) ]
let entrant name v = { Proc.name; run = (fun () -> payload v) }
let classify_all verdict _ = verdict

let test_race_single_winner () =
  let spawned0 = counter "proc.workers_spawned" in
  (match
     Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Win)
       [ entrant "solo" 42 ]
   with
  | Proc.Winner ("solo", p) ->
    Alcotest.(check bool)
      "payload crossed the pipe intact" true
      (Option.bind (Json.member "v" p) Json.to_int = Some 42)
  | _ -> Alcotest.fail "single entrant should win its own race");
  Alcotest.(check bool)
    "a worker was actually forked" true
    (counter "proc.workers_spawned" > spawned0)

let test_race_hold_is_last_resort () =
  match
    Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Hold)
      [ entrant "a" 1; entrant "b" 2 ]
  with
  | Proc.Held (_, p) ->
    Alcotest.(check bool)
      "held payload is one of the entrants'" true
      (match Option.bind (Json.member "v" p) Json.to_int with
      | Some (1 | 2) -> true
      | _ -> false)
  | Proc.Winner _ -> Alcotest.fail "nobody should win a race of give-ups"
  | Proc.All_failed _ -> Alcotest.fail "give-ups are not failures"

let test_race_reject_is_garbage () =
  match
    Proc.race ~policy:quick_policy
      ~classify:(classify_all (Proc.Reject "not credible"))
      [ entrant "solo" 1 ]
  with
  | Proc.All_failed [ f ] ->
    Alcotest.(check string) "entrant named" "solo" f.Proc.entrant;
    Alcotest.(check bool)
      "rejection counts as protocol garbage" true
      (f.Proc.resource = F.Worker_garbage)
  | _ -> Alcotest.fail "a rejected payload must surface as All_failed"

let test_injected_kill_loses_the_race () =
  let failures0 = counter "proc.worker_failures" in
  (* The survivor answers slowly so the victim's death is observed
     before the race settles — a loser cancelled after the win is not
     a failure, and this test is about the failure accounting. *)
  let slow_survivor =
    {
      Proc.name = "survivor";
      run =
        (fun () ->
          Unix.sleepf 0.3;
          payload 2);
    }
  in
  (match
     Proc.with_injected Proc.Kill (fun () ->
         Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Win)
           [ entrant "victim" 1; slow_survivor ])
   with
  | Proc.Winner ("survivor", _) -> ()
  | Proc.Winner (name, _) ->
    Alcotest.failf "the killed worker %s cannot win" name
  | Proc.Held _ | Proc.All_failed _ ->
    Alcotest.fail "the surviving entrant should still win");
  Alcotest.(check bool)
    "the murder was recorded" true
    (counter "proc.worker_failures" > failures0)

let test_injected_garbage_is_structured () =
  match
    Proc.with_injected Proc.Garbage (fun () ->
        Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Win)
          [ entrant "solo" 1 ])
  with
  | Proc.All_failed [ f ] ->
    Alcotest.(check bool)
      "protocol violation is Worker_garbage" true
      (f.Proc.resource = F.Worker_garbage)
  | _ -> Alcotest.fail "a garbage-emitting worker must fail structurally"

let test_injected_hang_hits_the_watchdog () =
  match
    Proc.with_injected Proc.Hang (fun () ->
        Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Win)
          [ entrant "solo" 1 ])
  with
  | Proc.All_failed [ f ] ->
    (* the watchdog times the silence out *)
    Alcotest.(check bool)
      "silence becomes Worker_timeout" true
      (f.Proc.resource = F.Worker_timeout)
  | _ -> Alcotest.fail "a hung worker must fail structurally"

let test_worker_exception_is_crash () =
  match
    Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Win)
      [ { Proc.name = "thrower"; run = (fun () -> failwith "engine bug") } ]
  with
  | Proc.All_failed [ f ] ->
    Alcotest.(check bool)
      "an engine exception is Worker_crashed" true
      (f.Proc.resource = F.Worker_crashed)
  | _ -> Alcotest.fail "a throwing entrant must fail structurally"

let test_race_rejects_empty () =
  match
    Proc.race ~policy:quick_policy ~classify:(classify_all Proc.Win) []
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an empty race must be rejected"

(* ------------------------------------------------------------------ *)
(* Racing CEGAR vs the sequential ladder                               *)
(* ------------------------------------------------------------------ *)

(* Injection pinned off so the differentials stay meaningful under the
   chaos CI job (which sets RFN_INJECT_FAULTS for the whole suite). *)
let config ?(inject = Some (fun _ -> None)) ?(race = false)
    ?(engines = Rfn.Atpg_only) ?checkpoint ?(resume = false)
    ?(max_iterations = 32) () =
  {
    Rfn.default_config with
    Rfn.max_iterations;
    node_limit = 500_000;
    mc_max_steps = 200;
    inject;
    engines;
    proc = { Proc.default_policy with Proc.enabled = race };
    checkpoint;
    resume;
  }

(* Racing introduces scheduling nondeterminism, so the differential
   compares verdicts, not traces: a Falsified trace only has to replay
   on the real design, not equal the sequential one's. *)
let check_verdicts name circuit prop (outcome_race, outcome_seq) =
  match (outcome_race, outcome_seq) with
  | Rfn.Proved, Rfn.Proved -> ()
  | Rfn.Falsified tr, Rfn.Falsified _ ->
    Alcotest.(check bool)
      (name ^ ": racing counterexample replays concretely")
      true
      (Sim3v.replay_concrete circuit tr ~bad:prop.Property.bad)
  | Rfn.Aborted fr, Rfn.Aborted fs ->
    Alcotest.(check string)
      (name ^ ": identical aborts")
      (F.to_string fs) (F.to_string fr)
  | _ ->
    let show = function
      | Rfn.Proved -> "proved"
      | Rfn.Falsified _ -> "falsified"
      | Rfn.Aborted _ -> "aborted"
    in
    Alcotest.failf "%s: verdicts diverge (racing %s, sequential %s)" name
      (show outcome_race) (show outcome_seq)

let test_racing_matches_sequential_zoo () =
  (* Portfolio engines so the races have two genuine entrants, against
     the sequential portfolio ladder of PR 4. *)
  let races0 = counter "race.runs" in
  List.iter
    (fun (name, circuit, prop) ->
      let run ~race =
        fst
          (Rfn.verify
             ~config:(config ~race ~engines:Rfn.Portfolio ())
             circuit prop)
      in
      check_verdicts name circuit prop (run ~race:true, run ~race:false))
    (Helpers.zoo ());
  Alcotest.(check bool)
    "races actually ran" true
    (counter "race.runs" > races0)

let test_worker_kill_mid_run () =
  (* SIGKILL the first concretization worker: the supervisor must
     absorb the crash (fallback to the in-process rungs or to the
     surviving entrant) and reach the same verdict as an undisturbed
     sequential run — and the provenance must confess the murder. *)
  let name, circuit, prop =
    ("deep_bug3/bad", Helpers.deep_bug_design ~width:3, ())
  in
  ignore prop;
  let prop = Property.of_output circuit "bad" in
  let baseline = fst (Rfn.verify ~config:(config ()) circuit prop) in
  let chaos_inject = Supervisor.inject_of_spec "worker-kill" in
  let outcome, stats =
    Rfn.verify ~config:(config ~inject:chaos_inject ~race:true ()) circuit prop
  in
  check_verdicts name circuit prop (outcome, baseline);
  Alcotest.(check bool)
    "provenance records the worker failure" true
    (List.exists
       (fun p -> p.Provenance.worker_failures > 0)
       stats.Rfn.provenance)

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

(* Regression: the RSS sampler used to let [input_line] exceptions
   escape into the heartbeat (reading a directory raises [Sys_error],
   not [End_of_file]); every degraded path must answer 0 — "RSS
   unknown", disabling the memory cap — and bump [proc.rss_unknown]. *)
let test_rss_degraded_paths () =
  let c_unknown = Telemetry.counter "proc.rss_unknown" in
  let check name path =
    let before = Telemetry.counter_value c_unknown in
    Alcotest.(check int) (name ^ " reads as unknown") 0
      (Proc.rss_mb_of_file path);
    Alcotest.(check int)
      (name ^ " bumps proc.rss_unknown")
      (before + 1)
      (Telemetry.counter_value c_unknown)
  in
  check "missing file" "/nonexistent/statm";
  (* a directory opens fine but raises Sys_error on the first read *)
  check "unreadable stream" (Filename.get_temp_dir_name ());
  let truncated = Filename.temp_file "rfn_statm" ".txt" in
  check "empty file" truncated;
  let oc = open_out truncated in
  output_string oc "12345 not-a-number 7\n";
  close_out oc;
  check "malformed field" truncated;
  Sys.remove truncated;
  (* the real procfs still reads as a sane value *)
  if Sys.file_exists "/proc/self/statm" then begin
    let before = Telemetry.counter_value c_unknown in
    Alcotest.(check bool)
      "live statm parses" true
      (Proc.rss_mb_of_file "/proc/self/statm" >= 0);
    Alcotest.(check int)
      "live statm is not unknown" before
      (Telemetry.counter_value c_unknown)
  end

let tests =
  [
    Alcotest.test_case "RSS sampler never raises" `Quick
      test_rss_degraded_paths;
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
    Alcotest.test_case "a lone entrant wins its race" `Quick
      test_race_single_winner;
    Alcotest.test_case "give-ups are held, not failed" `Quick
      test_race_hold_is_last_resort;
    Alcotest.test_case "rejected payloads are garbage" `Quick
      test_race_reject_is_garbage;
    Alcotest.test_case "a killed worker loses, the race concludes" `Quick
      test_injected_kill_loses_the_race;
    Alcotest.test_case "garbage output fails structurally" `Quick
      test_injected_garbage_is_structured;
    Alcotest.test_case "the watchdog times out a hung worker" `Quick
      test_injected_hang_hits_the_watchdog;
    Alcotest.test_case "an engine exception is a crash" `Quick
      test_worker_exception_is_crash;
    Alcotest.test_case "an empty race is rejected" `Quick
      test_race_rejects_empty;
    Alcotest.test_case "racing matches sequential verdicts on the zoo" `Quick
      test_racing_matches_sequential_zoo;
    Alcotest.test_case "a SIGKILLed worker never changes the verdict" `Quick
      test_worker_kill_mid_run;
    Alcotest.test_case "checkpoint, kill, resume: same verdict, fewer \
                        iterations"
      `Quick test_checkpoint_resume_differential;
    Alcotest.test_case "a stale checkpoint starts fresh" `Quick
      test_stale_checkpoint_starts_fresh;
  ]

let () = Alcotest.run "proc" [ ("proc", tests) ]
