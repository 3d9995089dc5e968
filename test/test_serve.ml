(* Tests for the verification service: cone-grouping scheduler
   determinism, warm-session LRU eviction, the wire protocol, the
   job-id checkpoint key, per-job telemetry scoping, and a
   batch-vs-cold differential that drives the real server loop end to
   end over file descriptors. *)

open Rfn_circuit
module Rfn = Rfn_core.Rfn
module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json
module Checkpoint = Rfn_proc.Checkpoint
module Codec = Rfn_proc.Codec
module Protocol = Rfn_serve.Protocol
module Scheduler = Rfn_serve.Scheduler
module Pool = Rfn_serve.Pool
module Server = Rfn_serve.Server

(* Injection pinned off (not deferred to RFN_INJECT_FAULTS) so the
   differential comparisons stay deterministic under the chaos CI
   job. *)
let no_inject = Some (fun _ -> None)

let config =
  {
    Rfn.default_config with
    Rfn.max_iterations = 32;
    node_limit = 500_000;
    mc_max_steps = 200;
    inject = no_inject;
  }

(* ---- scheduler ------------------------------------------------------ *)

let bs ids = Bitset.of_list 64 ids

let test_plan_groups () =
  (* a and b share a register, d shares with b (hence transitively
     with a), c is disjoint: one warm group [a;b;d], then [c] *)
  let jobs =
    [
      ("a", "d1", bs [ 1; 2 ]);
      ("b", "d1", bs [ 2; 3 ]);
      ("c", "d1", bs [ 9 ]);
      ("d", "d1", bs [ 3; 4 ]);
    ]
  in
  Alcotest.(check (list string))
    "transitive COI group runs back to back"
    [ "a"; "b"; "d"; "c" ]
    (Scheduler.plan jobs)

let test_plan_digest_buckets () =
  let jobs =
    [
      ("a", "d1", bs [ 1 ]);
      ("x", "d2", bs [ 1 ]);
      ("b", "d1", bs [ 1 ]);
      ("y", "d2", bs [ 9 ]);
    ]
  in
  Alcotest.(check (list string))
    "one bucket per digest, buckets in first-submission order"
    [ "a"; "b"; "x"; "y" ]
    (Scheduler.plan jobs)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map
          (fun p -> x :: p)
          (permutations (List.filter (fun y -> y != x) l)))
      l

let test_plan_permutation_invariant () =
  (* the partition into COI groups is a function of the submitted set,
     not of arrival order: in every permutation a, b, d stay
     contiguous and c runs alone *)
  let base =
    [
      ("a", "d1", bs [ 1; 2 ]);
      ("b", "d1", bs [ 2; 3 ]);
      ("c", "d1", bs [ 9 ]);
      ("d", "d1", bs [ 3; 4 ]);
    ]
  in
  List.iter
    (fun jobs ->
      let plan = Scheduler.plan jobs in
      Alcotest.(check int) "plan is a permutation" 4 (List.length plan);
      let pos x =
        let rec go i = function
          | [] -> Alcotest.fail ("job missing from plan: " ^ x)
          | y :: _ when y = x -> i
          | _ :: tl -> go (i + 1) tl
        in
        go 0 plan
      in
      let group = List.sort compare [ pos "a"; pos "b"; pos "d" ] in
      match group with
      | [ lo; _; hi ] ->
        Alcotest.(check int) "group of a, b, d is contiguous" 2 (hi - lo)
      | _ -> assert false)
    (permutations base)

(* ---- pool ----------------------------------------------------------- *)

let counter_prop () =
  let c = Helpers.counter_design ~width:3 ~limit:7 in
  (c, Property.of_output c "at_limit")

let test_pool_lru () =
  let c, p = counter_prop () in
  let make () = Rfn.prepare ~config c ~roots:(Property.roots p) in
  let pool = Pool.create ~max_sessions:2 () in
  let _, warm = Pool.acquire pool ~digest:"a" ~create:make in
  Alcotest.(check bool) "first acquire is cold" false warm;
  let _, _ = Pool.acquire pool ~digest:"b" ~create:make in
  let _, warm = Pool.acquire pool ~digest:"a" ~create:make in
  Alcotest.(check bool) "hit is warm" true warm;
  (* b is now least recently used; a third digest evicts it *)
  ignore (Pool.acquire pool ~digest:"c" ~create:make);
  Alcotest.(check (list string))
    "LRU evicted, MRU first" [ "c"; "a" ] (Pool.digests pool);
  let _, warm = Pool.acquire pool ~digest:"b" ~create:make in
  Alcotest.(check bool) "evicted entry comes back cold" false warm;
  (* re-admitting b pushed out a, the LRU of the survivors *)
  Alcotest.(check (list string))
    "LRU of the survivors evicted" [ "b"; "c" ] (Pool.digests pool);
  Pool.drop pool ~digest:"b";
  Alcotest.(check int) "drop removes the entry" 1 (Pool.length pool)

let test_pool_trim () =
  (* verified sessions hold live BDD nodes, so a 1-node budget must
     trim every entry except the most recently used *)
  let c, p = counter_prop () in
  let make () = Rfn.prepare ~config c ~roots:(Property.roots p) in
  let pool = Pool.create ~max_sessions:4 ~max_nodes:1 () in
  let run digest =
    let session, _ = Pool.acquire pool ~digest ~create:make in
    ignore (Rfn.verify_in_session ~config session p)
  in
  run "a";
  run "b";
  run "c";
  Pool.trim pool;
  Alcotest.(check (list string))
    "trim keeps only the MRU" [ "c" ] (Pool.digests pool)

(* ---- protocol ------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let submit =
    {
      Protocol.id = "j1";
      design = Protocol.File "x.bench";
      property = "bad";
      budget =
        {
          Protocol.no_budget with
          Protocol.max_iterations = Some 7;
          max_seconds = Some 1.5;
        };
    }
  in
  match
    Protocol.request_of_line
      (Rfn_obs.Json.to_string (Protocol.submit_to_json submit))
  with
  | Ok (Protocol.Submit s) ->
    Alcotest.(check string) "id" "j1" s.Protocol.id;
    Alcotest.(check string) "property" "bad" s.Protocol.property;
    (match s.Protocol.design with
    | Protocol.File f -> Alcotest.(check string) "design path" "x.bench" f
    | Protocol.Netlist _ -> Alcotest.fail "expected File");
    Alcotest.(check (option int))
      "max_iterations" (Some 7) s.Protocol.budget.Protocol.max_iterations;
    Alcotest.(check (option (float 0.0)))
      "max_seconds" (Some 1.5) s.Protocol.budget.Protocol.max_seconds;
    Alcotest.(check bool)
      "unset budget fields stay None" true
      (s.Protocol.budget.Protocol.node_limit = None
      && s.Protocol.budget.Protocol.engines = None)
  | Ok _ -> Alcotest.fail "expected a submit request"
  | Error e -> Alcotest.fail e

let test_protocol_malformed () =
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed request: " ^ line))
    [
      "not json";
      {|{"id":"j1"}|};
      {|{"op":"frobnicate"}|};
      {|{"op":"submit","property":"bad","design":"a.bench"}|};
      {|{"op":"submit","id":"j","property":"bad"}|};
      {|{"op":"submit","id":"j","design":"a","netlist":"b","property":"p"}|};
      {|{"op":"submit","id":"j","design":"a","property":"p","engines":"warp"}|};
      {|{"op":"cancel"}|};
    ]

(* ---- checkpoint job key --------------------------------------------- *)

let test_checkpoint_job_id () =
  let ck =
    Checkpoint.make ~job_id:"j1" ~netlist_hash:"h" ~property:"p" ~iteration:2
      ~seconds_used:0.1 ~escalation:1 ~regs:[ "r" ] ~provenance:[] ()
  in
  (match Checkpoint.validate ~job_id:"j1" ck ~netlist_hash:"h" ~property:"p" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Checkpoint.validate ~job_id:"j2" ck ~netlist_hash:"h" ~property:"p" with
  | Ok () -> Alcotest.fail "a foreign job adopted the checkpoint"
  | Error _ -> ());
  (match Checkpoint.validate ck ~netlist_hash:"h" ~property:"p" with
  | Ok () -> Alcotest.fail "a stand-alone run adopted a job checkpoint"
  | Error _ -> ());
  let file = Filename.temp_file "rfn_serve_ck" ".json" in
  Checkpoint.save file ck;
  (match Checkpoint.load file with
  | Ok ck' ->
    Alcotest.(check string)
      "job_id survives the JSON round-trip" "j1" ck'.Checkpoint.job_id
  | Error e -> Alcotest.fail e);
  Sys.remove file

(* ---- telemetry scoping ---------------------------------------------- *)

let test_scope_delta () =
  Telemetry.reset ();
  let a = Telemetry.counter "scope_test.a" in
  let b = Telemetry.counter "scope_test.b" in
  Telemetry.incr a;
  let scope = Telemetry.scope () in
  Telemetry.incr a;
  Telemetry.incr a;
  Telemetry.incr b;
  let deltas =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"scope_test." n)
      (Telemetry.scope_delta scope)
  in
  Alcotest.(check (list (pair string int)))
    "deltas since the scope only, sorted"
    [ ("scope_test.a", 2); ("scope_test.b", 1) ]
    deltas

(* ---- server loop ---------------------------------------------------- *)

(* Feed [lines] to a server over real file descriptors and hand back
   (jobs completed, parsed response events in order). *)
let run_server lines =
  let infile = Filename.temp_file "rfn_serve_in" ".jsonl" in
  let outfile = Filename.temp_file "rfn_serve_out" ".jsonl" in
  let oc = open_out infile in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let input = Unix.openfile infile [ Unix.O_RDONLY ] 0 in
  let output = open_out outfile in
  let completed =
    Fun.protect
      ~finally:(fun () ->
        Unix.close input;
        close_out_noerr output)
      (fun () -> Server.run ~config ~input ~output ())
  in
  let ic = open_in outfile in
  let events =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | l -> go (Json.of_string l :: acc)
        in
        go [])
  in
  Sys.remove infile;
  Sys.remove outfile;
  (completed, events)

let ev j =
  match Json.member "ev" j with
  | Some (Json.Str s) -> s
  | _ -> "?"

let sid j =
  match Json.member "id" j with
  | Some (Json.Str s) -> s
  | _ -> ""

let str k j = Option.bind (Json.member k j) Json.to_str

let submit_line ?(budget = Protocol.no_budget) id circuit property =
  Json.to_string
    (Protocol.submit_to_json
       {
         Protocol.id;
         design = Protocol.Netlist (Bench_io.to_string circuit);
         property;
         budget;
       })

let test_server_batch () =
  let c, _ = counter_prop () in
  let completed, events =
    run_server
      [
        submit_line "j1" c "at_limit";
        submit_line "j1" c "at_limit";
        (* duplicate id *)
        submit_line "j2" c "no_such_output";
        {|{"op":"status"}|};
        {|{"op":"shutdown"}|};
      ]
  in
  Alcotest.(check int) "one job completed" 1 completed;
  let results = List.filter (fun j -> ev j = "result") events in
  Alcotest.(check (list string))
    "exactly one result line, for the accepted id" [ "j1" ]
    (List.map sid results);
  Alcotest.(check int)
    "duplicate id and unknown property are errors" 2
    (List.length (List.filter (fun j -> ev j = "error") events));
  Alcotest.(check int)
    "status answered" 1
    (List.length (List.filter (fun j -> ev j = "status") events));
  match List.rev events with
  | bye :: _ -> Alcotest.(check string) "bye is last" "bye" (ev bye)
  | [] -> Alcotest.fail "no events at all"

let test_server_cancel () =
  let c, _ = counter_prop () in
  let completed, events =
    run_server
      [
        submit_line "j1" c "at_limit";
        submit_line "j2" c "at_limit";
        {|{"op":"cancel","id":"j2"}|};
        {|{"op":"shutdown"}|};
      ]
  in
  (* input drains before any job runs, so the cancel beats the queue *)
  Alcotest.(check int) "only the surviving job completed" 1 completed;
  let results = List.filter (fun j -> ev j = "result") events in
  let verdict_of id =
    match List.find_opt (fun j -> sid j = id) results with
    | Some j -> Option.value ~default:"?" (str "verdict" j)
    | None -> "missing"
  in
  Alcotest.(check string) "cancelled job reports so" "cancelled"
    (verdict_of "j2");
  Alcotest.(check bool)
    "surviving job got a real verdict" true
    (verdict_of "j1" <> "missing" && verdict_of "j1" <> "cancelled")

(* Regression: a status query naming an id the server has never seen
   used to hit a bare [Hashtbl.find] and kill the whole serve loop
   with [Not_found]; it must answer with a protocol error event and
   keep serving. *)
let test_status_unknown_id () =
  let completed, events =
    run_server
      [
        {|{"op":"status","id":"nope"}|};
        submit_line "j1" (fst (counter_prop ())) "at_limit";
        {|{"op":"shutdown"}|};
      ]
  in
  Alcotest.(check int) "the loop survived and ran the later job" 1 completed;
  let errors = List.filter (fun j -> ev j = "error") events in
  Alcotest.(check (list string))
    "unknown id answered with an error event" [ "nope" ]
    (List.map sid errors)

(* AIGER designs through the server: a [File] submission dispatched on
   the extension and an inline netlist sniffed by its magic. *)
let test_server_aiger_design () =
  let path =
    List.find Sys.file_exists
      [ "../examples/passing_token.aag"; "examples/passing_token.aag" ]
  in
  let text =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let submit id design =
    Json.to_string
      (Protocol.submit_to_json
         { Protocol.id; design; property = "both_high";
           budget = Protocol.no_budget })
  in
  let completed, events =
    run_server
      [
        submit "from-file" (Protocol.File path);
        submit "inline" (Protocol.Netlist text);
        {|{"op":"shutdown"}|};
      ]
  in
  Alcotest.(check int) "both AIGER jobs completed" 2 completed;
  let results = List.filter (fun j -> ev j = "result") events in
  List.iter
    (fun id ->
      match List.find_opt (fun j -> sid j = id) results with
      | None -> Alcotest.fail (id ^ ": no result line")
      | Some r ->
        Alcotest.(check string)
          (id ^ ": token hand-off proved")
          "proved"
          (Option.value ~default:"?" (str "verdict" r)))
    [ "from-file"; "inline" ]

(* ---- batch vs cold differential on the zoo -------------------------- *)

let test_batch_matches_cold () =
  (* serialization renumbers signals, so run the cold reference on the
     very circuit the server will parse back — trace literals then
     compare verbatim *)
  let zoo =
    List.map
      (fun (name, c, prop) ->
        (name, Bench_io.parse (Bench_io.to_string c), prop.Property.name))
      (Helpers.zoo ())
  in
  Telemetry.reset ();
  Telemetry.enable ();
  let c_reused = Telemetry.counter "session.cones_reused" in
  let c_recompiled = Telemetry.counter "session.cones_recompiled" in
  let cold =
    List.map
      (fun (name, c, out) ->
        let outcome, _ = Rfn.verify ~config c (Property.of_output c out) in
        (name, outcome))
      zoo
  in
  let cold_reused = Telemetry.counter_value c_reused in
  let cold_recompiled = Telemetry.counter_value c_recompiled in
  Telemetry.reset ();
  let budget =
    {
      Protocol.no_budget with
      Protocol.max_iterations = Some config.Rfn.max_iterations;
      node_limit = Some config.Rfn.node_limit;
      mc_max_steps = Some config.Rfn.mc_max_steps;
    }
  in
  let completed, events =
    run_server
      (List.map (fun (name, c, out) -> submit_line ~budget name c out) zoo
      @ [ {|{"op":"shutdown"}|} ])
  in
  Alcotest.(check int) "every zoo job completed" (List.length zoo) completed;
  let results = List.filter (fun j -> ev j = "result") events in
  List.iter
    (fun (name, outcome) ->
      match List.find_opt (fun j -> sid j = name) results with
      | None -> Alcotest.fail (name ^ ": no result line")
      | Some r -> (
        let verdict = Option.value ~default:"?" (str "verdict" r) in
        match outcome with
        | Rfn.Proved ->
          Alcotest.(check string) (name ^ ": verdict") "proved" verdict
        | Rfn.Falsified trace ->
          Alcotest.(check string) (name ^ ": verdict") "falsified" verdict;
          let batch_trace =
            match Json.member "trace" r with
            | Some t -> Json.to_string t
            | None -> "missing"
          in
          Alcotest.(check string)
            (name ^ ": identical counterexample")
            (Json.to_string (Codec.trace_to_json trace))
            batch_trace
        | Rfn.Aborted _ ->
          Alcotest.(check string) (name ^ ": verdict") "aborted" verdict))
    cold;
  (* the warm sessions must pay for themselves: strictly more cone
     reuse and strictly fewer recompilations than the cold runs *)
  Alcotest.(check bool)
    "warm sessions reused" true
    (Telemetry.counter_value (Telemetry.counter "serve.sessions_reused") > 0);
  Alcotest.(check bool)
    "batch reuses strictly more cones than cold" true
    (Telemetry.counter_value c_reused > cold_reused);
  Alcotest.(check bool)
    "batch recompiles strictly fewer cones than cold" true
    (Telemetry.counter_value c_recompiled < cold_recompiled);
  Telemetry.disable ()

let () =
  Alcotest.run "serve"
    [
      ( "scheduler",
        [
          Alcotest.test_case "coi-groups" `Quick test_plan_groups;
          Alcotest.test_case "digest-buckets" `Quick test_plan_digest_buckets;
          Alcotest.test_case "permutation-invariant" `Quick
            test_plan_permutation_invariant;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lru-eviction" `Quick test_pool_lru;
          Alcotest.test_case "node-trim" `Quick test_pool_trim;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed" `Quick test_protocol_malformed;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "job-id-key" `Quick test_checkpoint_job_id ] );
      ( "telemetry",
        [ Alcotest.test_case "scope-delta" `Quick test_scope_delta ] );
      ( "server",
        [
          Alcotest.test_case "batch-loop" `Quick test_server_batch;
          Alcotest.test_case "cancel" `Quick test_server_cancel;
          Alcotest.test_case "status-unknown-id" `Quick test_status_unknown_id;
          Alcotest.test_case "aiger-designs" `Quick test_server_aiger_design;
          Alcotest.test_case "batch-matches-cold" `Slow
            test_batch_matches_cold;
        ] );
    ]
