(* The deep-observability layer: log-bucketed histograms, the Chrome
   trace-event sink, CEGAR provenance round-tripping, the resource
   sampler, and the provenance stream of a real verification run. *)

module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance
module Sampler = Rfn_obs.Sampler
module Rfn = Rfn_core.Rfn

let with_clean_registry f =
  Telemetry.detach ();
  Telemetry.disable ();
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.detach ();
      Telemetry.disable ();
      Telemetry.reset ())
    f

let tmp_file suffix = Filename.temp_file "rfn_obs_test" suffix

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines file =
  String.split_on_char '\n' (read_file file)
  |> List.filter (fun l -> String.trim l <> "")

(* ---- histograms ------------------------------------------------------ *)

let test_histogram_basics () =
  with_clean_registry @@ fun () ->
  let h = Telemetry.histogram "test.h" in
  Alcotest.(check int) "fresh histogram is empty" 0
    (Telemetry.histogram_count h);
  List.iter (Telemetry.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Telemetry.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Telemetry.histogram_sum h);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Telemetry.histogram_max h);
  let h' = Telemetry.histogram "test.h" in
  Telemetry.observe h' 5.0;
  Alcotest.(check int) "same name, same histogram" 5
    (Telemetry.histogram_count h);
  Telemetry.reset ();
  Alcotest.(check int) "reset empties, handle stays valid" 0
    (Telemetry.histogram_count h)

let test_histogram_quantiles () =
  with_clean_registry @@ fun () ->
  let h = Telemetry.histogram "test.q" in
  (* 90 tiny observations and 10 large ones: p50 lands in the tiny
     bucket, p90 at its edge, and everything is clamped to the true
     observed maximum *)
  for _ = 1 to 90 do
    Telemetry.observe h 1e-6
  done;
  for _ = 1 to 10 do
    Telemetry.observe h 1.0
  done;
  let p50 = Telemetry.histogram_quantile h 0.5 in
  let p99 = Telemetry.histogram_quantile h 0.99 in
  Alcotest.(check bool) "p50 in the small-value range" true
    (p50 >= 1e-7 && p50 <= 1e-5);
  Alcotest.(check bool) "p99 in the large-value range" true (p99 > 0.1);
  Alcotest.(check bool) "quantile clamped to observed max" true
    (p99 <= Telemetry.histogram_max h);
  (* the bucket estimate is an upper bound of the bucket, never below
     the true quantile *)
  Alcotest.(check bool) "p50 upper-bounds the true median" true (p50 >= 1e-6)

let test_histogram_rejects_nonfinite () =
  with_clean_registry @@ fun () ->
  let h = Telemetry.histogram "test.nf" in
  Telemetry.observe h Float.nan;
  Telemetry.observe h Float.infinity;
  Telemetry.observe h Float.neg_infinity;
  Telemetry.observe h (-1.0);
  Alcotest.(check int) "non-finite and negative observations dropped" 0
    (Telemetry.histogram_count h);
  Telemetry.observe h 0.0;
  Alcotest.(check int) "zero lands in the first bucket" 1
    (Telemetry.histogram_count h)

let test_histogram_snapshot_and_events () =
  with_clean_registry @@ fun () ->
  let file = tmp_file ".jsonl" in
  Telemetry.attach_jsonl file;
  let h = Telemetry.histogram "test.snap" in
  Telemetry.observe h 0.5;
  Telemetry.observe h 2.0e9;
  (* the final snapshot (including the large-magnitude observation) is
     written when the sink detaches *)
  Telemetry.detach ();
  let hist_lines =
    List.filter_map
      (fun l ->
        let j = Json.of_string l in
        match (Json.member "ev" j, Json.member "name" j) with
        | Some (Json.Str "histogram"), Some (Json.Str "test.snap") -> Some j
        | _ -> None)
      (read_lines file)
  in
  Sys.remove file;
  match hist_lines with
  | [ j ] ->
    Alcotest.(check (option int))
      "count" (Some 2)
      (Option.bind (Json.member "count" j) Json.to_int);
    let p90 =
      match Option.bind (Json.member "p90" j) Json.to_float with
      | Some f -> f
      | None -> Alcotest.fail "missing p90"
    in
    Alcotest.(check bool) "p90 covers the billion-scale value" true
      (p90 >= 1.0e9)
  | l ->
    Alcotest.failf "expected exactly one histogram event, got %d"
      (List.length l)

(* ---- Chrome trace sink ----------------------------------------------- *)

let test_chrome_trace_file () =
  with_clean_registry @@ fun () ->
  let file = tmp_file ".json" in
  Telemetry.attach_trace file;
  Alcotest.(check bool) "trace attached" true (Telemetry.trace_attached ());
  Telemetry.with_span "outer" (fun () ->
      Telemetry.with_span "inner"
        ~attrs:[ ("k", Json.Int 7) ]
        (fun () -> ());
      Telemetry.event "tick" [ ("n", Json.Int 1) ];
      Telemetry.trace_counter "gauge.x" [ ("value", 3.0) ]);
  Telemetry.detach ();
  let events =
    match Json.of_string (read_file file) with
    | Json.List l -> l
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  Sys.remove file;
  let phs name =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "name" e) with
        | Some (Json.Str ph), Some (Json.Str n) when n = name -> Some ph
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "outer span is a complete event" [ "X" ]
    (phs "outer");
  Alcotest.(check (list string)) "inner span is a complete event" [ "X" ]
    (phs "inner");
  Alcotest.(check (list string)) "event is an instant" [ "i" ] (phs "tick");
  Alcotest.(check (list string)) "counter series" [ "C" ] (phs "gauge.x");
  (* every record carries non-negative microsecond timestamps *)
  List.iter
    (fun e ->
      match Option.bind (Json.member "ts" e) Json.to_float with
      | Some ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
      | None -> ())
    events;
  (* the inner complete event nests within the outer one *)
  let bounds name =
    List.find_map
      (fun e ->
        match (Json.member "name" e, Json.member "ph" e) with
        | Some (Json.Str n), Some (Json.Str "X") when n = name ->
          Some
            ( Option.get (Option.bind (Json.member "ts" e) Json.to_float),
              Option.get (Option.bind (Json.member "dur" e) Json.to_float) )
        | _ -> None)
      events
  in
  match (bounds "outer", bounds "inner") with
  | Some (ots, odur), Some (its, idur) ->
    Alcotest.(check bool) "inner contained in outer" true
      (its >= ots && its +. idur <= ots +. odur +. 1.0)
  | _ -> Alcotest.fail "missing span bounds"

let test_trace_survives_exceptions () =
  with_clean_registry @@ fun () ->
  let file = tmp_file ".json" in
  Telemetry.attach_trace file;
  (try
     Telemetry.with_span "doomed" (fun () -> failwith "engine abort")
   with Failure _ -> ());
  Alcotest.(check int) "span depth balanced after raise" 0
    (Telemetry.current_depth ());
  Telemetry.detach ();
  let events =
    match Json.of_string (read_file file) with
    | Json.List l -> l
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  Sys.remove file;
  let doomed =
    List.find_opt
      (fun e -> Json.member "name" e = Some (Json.Str "doomed"))
      events
  in
  match doomed with
  | Some e ->
    let error =
      Option.bind (Json.member "args" e) (fun a -> Json.member "error" a)
    in
    Alcotest.(check bool) "failed span records its error" true (error <> None)
  | None -> Alcotest.fail "span lost on the exception path"

(* ---- provenance records ---------------------------------------------- *)

let sample_record =
  {
    Provenance.iter = 3;
    regs_before = 5;
    regs_after = 7;
    model_inputs = 12;
    fixpoint_steps = 9;
    trace_depth = Some 4;
    cut_size = Some 2;
    no_cut_steps = 3;
    min_cut_steps = 1;
    cubes = 16;
    guidance = 2;
    engine = "portfolio";
    concretize = "not-found";
    promoted = [ "count_0"; "full_flag" ];
    candidates = 8;
    retries = 1;
    fallbacks = 0;
    injected = 0;
    bdd_nodes = 1234;
    bdd_peak = 5678;
    sat_learned = 42;
    backtracks = 17;
    seconds = 0.125;
    outcome = "refined";
  }

let test_provenance_roundtrip () =
  let j = Provenance.to_json sample_record in
  (* through the printer and parser, like a real --metrics-out line *)
  match Provenance.of_json (Json.of_string (Json.to_string j)) with
  | Ok p -> Alcotest.(check bool) "round-trips exactly" true (p = sample_record)
  | Error f -> Alcotest.fail ("round-trip lost field " ^ f)

let test_provenance_roundtrip_edge_values () =
  let edge =
    {
      sample_record with
      Provenance.trace_depth = None;
      cut_size = None;
      promoted = [];
      bdd_nodes = max_int;
      seconds = 1.2345678901234567;
    }
  in
  (match
     Provenance.of_json
       (Json.of_string (Json.to_string (Provenance.to_json edge)))
   with
  | Ok p ->
    Alcotest.(check bool) "options, max_int and 17-digit floats survive" true
      (p = edge)
  | Error f -> Alcotest.fail ("edge round-trip lost field " ^ f));
  (* non-finite floats serialize as null and parse back as 0.0 *)
  let weird = { sample_record with Provenance.seconds = Float.nan } in
  let s = Json.to_string (Provenance.to_json weird) in
  Alcotest.(check bool) "nan rendered as null" true
    (match Json.member "seconds" (Json.of_string s) with
    | Some Json.Null -> true
    | _ -> false);
  match Provenance.of_json (Json.of_string s) with
  | Ok p ->
    Alcotest.(check (float 0.0)) "null parses as 0.0" 0.0
      p.Provenance.seconds
  | Error f -> Alcotest.fail ("nan policy lost field " ^ f)

let test_provenance_tolerates_unknown_and_rejects_missing () =
  let j = Provenance.to_json sample_record in
  let with_extra =
    match j with
    | Json.Obj fields ->
      Json.Obj (("future_field", Json.Str "ignored") :: fields)
    | _ -> Alcotest.fail "provenance json is not an object"
  in
  (match Provenance.of_json with_extra with
  | Ok p ->
    Alcotest.(check bool) "unknown fields ignored" true (p = sample_record)
  | Error f -> Alcotest.fail ("unknown field broke parsing: " ^ f));
  let without_iter =
    match j with
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "iter") fields)
    | _ -> assert false
  in
  match Provenance.of_json without_iter with
  | Ok _ -> Alcotest.fail "missing required field must be rejected"
  | Error f ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("error names the field: " ^ f) true
      (contains f "iter")

(* ---- resource sampler ------------------------------------------------ *)

let test_sampler_tick () =
  with_clean_registry @@ fun () ->
  let file = tmp_file ".jsonl" in
  Telemetry.attach_jsonl file;
  Sampler.tick "test.phase";
  Telemetry.detach ();
  let samples =
    List.filter_map
      (fun l ->
        let j = Json.of_string l in
        match Json.member "ev" j with
        | Some (Json.Str "sample") -> Some j
        | _ -> None)
      (read_lines file)
  in
  Sys.remove file;
  match samples with
  | [ j ] ->
    Alcotest.(check (option string))
      "labelled with the phase" (Some "test.phase")
      (Option.bind (Json.member "at" j) Json.to_str);
    let heap =
      match Option.bind (Json.member "gc_heap_words" j) Json.to_int with
      | Some w -> w
      | None -> Alcotest.fail "sample lacks gc_heap_words"
    in
    Alcotest.(check bool) "heap words positive" true (heap > 0)
  | l -> Alcotest.failf "expected exactly one sample, got %d" (List.length l)

let test_sampler_disabled_is_silent () =
  with_clean_registry @@ fun () ->
  (* no sink, telemetry disabled: a tick must be a no-op, not a crash *)
  Sampler.tick "idle";
  Alcotest.(check pass) "tick without telemetry" () ()

(* ---- provenance stream of a real run --------------------------------- *)

let test_verify_emits_provenance () =
  with_clean_registry @@ fun () ->
  let file = tmp_file ".jsonl" in
  Telemetry.attach_jsonl file;
  let fifo = Rfn_designs.Fifo.(make ~params:small ()) in
  let outcome, stats =
    Rfn.verify fifo.Rfn_designs.Fifo.circuit fifo.Rfn_designs.Fifo.psh_hf
  in
  Telemetry.detach ();
  (match outcome with
  | Rfn.Proved -> ()
  | _ -> Alcotest.fail "fifo psh_hf must prove");
  (* rfnbench's mc.image_p90_s reads this histogram *)
  Alcotest.(check bool) "image steps timed in mc.image_seconds" true
    (Telemetry.histogram_count (Telemetry.histogram "mc.image_seconds") > 0);
  let streamed =
    List.filter_map
      (fun l ->
        let j = Json.of_string l in
        match Json.member "ev" j with
        | Some (Json.Str "rfn.iteration") -> (
          match Provenance.of_json j with
          | Ok p -> Some p
          | Error f -> Alcotest.fail ("unparseable rfn.iteration: " ^ f))
        | _ -> None)
      (read_lines file)
  in
  Sys.remove file;
  Alcotest.(check bool) "streamed records equal the in-memory ones" true
    (streamed = stats.Rfn.provenance);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "iterations numbered from 1" (i + 1)
        p.Provenance.iter)
    streamed;
  (match List.rev streamed with
  | last :: _ ->
    Alcotest.(check string) "final record carries the verdict" "proved"
      last.Provenance.outcome
  | [] -> Alcotest.fail "no provenance records");
  (* a proving run refines on every non-final iteration *)
  List.iter
    (fun p ->
      if p.Provenance.outcome = "refined" then begin
        Alcotest.(check bool) "refinement grows the abstraction" true
          (p.Provenance.regs_after > p.Provenance.regs_before);
        Alcotest.(check bool) "promoted names recorded" true
          (p.Provenance.promoted <> [])
      end)
    streamed

let tests =
  [
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram drops non-finite values" `Quick
      test_histogram_rejects_nonfinite;
    Alcotest.test_case "histogram snapshot events" `Quick
      test_histogram_snapshot_and_events;
    Alcotest.test_case "chrome trace file shape" `Quick test_chrome_trace_file;
    Alcotest.test_case "chrome trace survives exceptions" `Quick
      test_trace_survives_exceptions;
    Alcotest.test_case "provenance round-trip" `Quick test_provenance_roundtrip;
    Alcotest.test_case "provenance edge values and nan policy" `Quick
      test_provenance_roundtrip_edge_values;
    Alcotest.test_case "provenance unknown/missing fields" `Quick
      test_provenance_tolerates_unknown_and_rejects_missing;
    Alcotest.test_case "sampler tick emits a sample" `Quick test_sampler_tick;
    Alcotest.test_case "sampler silent when disabled" `Quick
      test_sampler_disabled_is_silent;
    Alcotest.test_case "verify streams one record per iteration" `Quick
      test_verify_emits_provenance;
  ]

let () = Alcotest.run "obs" [ ("obs", tests) ]
