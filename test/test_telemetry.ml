(* The observability layer: metric registry semantics, span nesting,
   the JSONL sink (round-tripped through the parser), and the
   disabled-registry fast path. *)

module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json

let with_clean_registry f =
  Telemetry.detach ();
  Telemetry.disable ();
  Telemetry.reset ();
  Fun.protect ~finally:(fun () ->
      Telemetry.detach ();
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* ---- metrics --------------------------------------------------------- *)

let test_counter_basics () =
  with_clean_registry @@ fun () ->
  let c = Telemetry.counter "test.c" in
  Alcotest.(check int) "fresh counter is zero" 0 (Telemetry.counter_value c);
  Telemetry.incr c;
  Telemetry.add c 41;
  Alcotest.(check int) "incr + add" 42 (Telemetry.counter_value c);
  let c' = Telemetry.counter "test.c" in
  Telemetry.incr c';
  Alcotest.(check int) "same name, same counter" 43
    (Telemetry.counter_value c);
  Telemetry.reset ();
  Alcotest.(check int) "reset zeroes, handle stays valid" 0
    (Telemetry.counter_value c)

let test_gauge_peak () =
  with_clean_registry @@ fun () ->
  let g = Telemetry.gauge "test.g" in
  Telemetry.record g 7;
  Telemetry.record g 99;
  Telemetry.record g 12;
  Alcotest.(check int) "last value" 12 (Telemetry.gauge_value g);
  Alcotest.(check int) "peak sticks" 99 (Telemetry.gauge_peak g)

let test_span_enable_gate () =
  with_clean_registry @@ fun () ->
  (* disabled: the thunk runs but no time is recorded *)
  Alcotest.(check int) "disabled span passes value through" 5
    (Telemetry.with_span "test.t" (fun () -> 5));
  Alcotest.(check bool) "disabled span records nothing" true
    (Telemetry.span_stats "test.t" = None);
  Telemetry.enable ();
  ignore (Telemetry.with_span "test.t" (fun () -> 5));
  match Telemetry.span_stats "test.t" with
  | Some (calls, total) ->
    Alcotest.(check int) "enabled span records a call" 1 calls;
    Alcotest.(check bool) "total is non-negative" true (total >= 0.0)
  | None -> Alcotest.fail "enabled span not aggregated"

(* ---- spans ----------------------------------------------------------- *)

let test_span_nesting_aggregates () =
  with_clean_registry @@ fun () ->
  Telemetry.enable ();
  let result =
    Telemetry.with_span "outer" (fun () ->
        Telemetry.with_span "inner" (fun () -> ());
        Telemetry.with_span "inner" (fun () -> ());
        17)
  in
  Alcotest.(check int) "span passes the value through" 17 result;
  (match Telemetry.span_stats "inner" with
  | Some (calls, _) -> Alcotest.(check int) "inner called twice" 2 calls
  | None -> Alcotest.fail "no aggregate for inner");
  (match Telemetry.span_stats "outer" with
  | Some (calls, total) ->
    Alcotest.(check int) "outer called once" 1 calls;
    let _, inner_total = Option.get (Telemetry.span_stats "inner") in
    Alcotest.(check bool) "outer encloses inner time" true
      (total >= inner_total)
  | None -> Alcotest.fail "no aggregate for outer")

let test_span_exception_safety () =
  with_clean_registry @@ fun () ->
  Telemetry.enable ();
  (try Telemetry.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  (match Telemetry.span_stats "boom" with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "span not closed on exception");
  (* depth must have unwound: a fresh span still reports depth 1 *)
  let file = Filename.temp_file "rfn_telemetry" ".jsonl" in
  Telemetry.attach_jsonl file;
  Telemetry.with_span "after" (fun () -> ());
  Telemetry.detach ();
  let lines = In_channel.with_open_text file In_channel.input_lines in
  Sys.remove file;
  let depth_of line =
    Option.get (Json.to_int (Option.get (Json.member "depth" (Json.of_string line))))
  in
  let span_lines =
    List.filter
      (fun l -> Json.member "ev" (Json.of_string l) = Some (Json.Str "span"))
      lines
  in
  Alcotest.(check int) "depth unwound after exception" 1
    (depth_of (List.hd span_lines))

(* ---- JSONL sink ------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  with_clean_registry @@ fun () ->
  let file = Filename.temp_file "rfn_telemetry" ".jsonl" in
  Telemetry.attach_jsonl file;
  let c = Telemetry.counter "test.events" in
  Telemetry.add c 3;
  Telemetry.with_span "phase"
    ~attrs:[ ("iter", Json.Int 4); ("tag", Json.Str "a\"b\\c") ]
    (fun () -> Telemetry.with_span "sub" (fun () -> ()));
  Telemetry.event "custom" [ ("k", Json.Int 1) ];
  Telemetry.detach ();
  let lines = In_channel.with_open_text file In_channel.input_lines in
  Sys.remove file;
  let parsed = List.map Json.of_string lines in
  Alcotest.(check bool) "every line parses" true (List.length parsed >= 4);
  let spans =
    List.filter (fun j -> Json.member "ev" j = Some (Json.Str "span")) parsed
  in
  Alcotest.(check int) "two span events" 2 (List.length spans);
  (* spans close innermost-first *)
  let names = List.filter_map (fun j -> Json.member "name" j) spans in
  Alcotest.(check bool) "sub closes before phase" true
    (names = [ Json.Str "sub"; Json.Str "phase" ]);
  let phase = List.nth spans 1 in
  Alcotest.(check int) "phase depth" 1
    (Option.get (Json.to_int (Option.get (Json.member "depth" phase))));
  let attrs = Option.get (Json.member "attrs" phase) in
  Alcotest.(check bool) "attrs round-trip (escaped string)" true
    (Json.member "tag" attrs = Some (Json.Str "a\"b\\c"));
  Alcotest.(check bool) "span has a finite duration" true
    (match Json.to_float (Option.get (Json.member "dur" phase)) with
    | Some d -> d >= 0.0
    | None -> false);
  (* the final metric snapshot contains the counter *)
  let counter_ev =
    List.find_opt
      (fun j ->
        Json.member "ev" j = Some (Json.Str "counter")
        && Json.member "name" j = Some (Json.Str "test.events"))
      parsed
  in
  (match counter_ev with
  | Some j ->
    Alcotest.(check int) "counter snapshot value" 3
      (Option.get (Json.to_int (Option.get (Json.member "value" j))))
  | None -> Alcotest.fail "no counter snapshot event");
  (* custom events pass through *)
  Alcotest.(check bool) "custom event emitted" true
    (List.exists
       (fun j -> Json.member "ev" j = Some (Json.Str "custom"))
       parsed)

(* ---- disabled fast path ---------------------------------------------- *)

let test_disabled_fast_path () =
  with_clean_registry @@ fun () ->
  Alcotest.(check bool) "registry starts disabled" false (Telemetry.enabled ());
  let v = Telemetry.with_span "ghost" (fun () -> 23) in
  Alcotest.(check int) "disabled span passes value through" 23 v;
  Alcotest.(check bool) "disabled span records nothing" true
    (Telemetry.span_stats "ghost" = None);
  (* counters stay live even when disabled — they are the cheap tier *)
  let c = Telemetry.counter "test.live" in
  Telemetry.incr c;
  Alcotest.(check int) "counters count while disabled" 1
    (Telemetry.counter_value c)

(* ---- Json unit tests ------------------------------------------------- *)

let test_json_parser () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \r bytes";
      Json.List [ Json.Int 1; Json.Str "two"; Json.List [] ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      let j' = Json.of_string (Json.to_string j) in
      Alcotest.(check bool)
        (Printf.sprintf "round-trips %s" (Json.to_string j))
        true (j = j'))
    cases;
  (* foreign input: whitespace, \u escapes, float exponents *)
  Alcotest.(check bool) "parses foreign JSON" true
    (Json.of_string " { \"k\" : [ 1e2 , \"\\u0041\" ] } "
    = Json.Obj [ ("k", Json.List [ Json.Float 100.0; Json.Str "A" ]) ]);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("accepted malformed input: " ^ bad))
    [ "{"; "[1,]"; "\"unterminated"; "1 2"; "nul" ]

let test_json_unicode_escapes () =
  (* BMP scalars decode to UTF-8 *)
  List.iter
    (fun (escaped, utf8) ->
      Alcotest.(check bool)
        (Printf.sprintf "decodes %s" escaped)
        true
        (Json.of_string (Printf.sprintf "\"%s\"" escaped) = Json.Str utf8))
    [
      ("\\u0041", "A");
      ("\\u00e9", "\xc3\xa9") (* é *);
      ("\\u20ac", "\xe2\x82\xac") (* € *);
      (* a surrogate pair combines into one astral scalar: U+1F600 *)
      ("\\ud83d\\ude00", "\xf0\x9f\x98\x80");
    ];
  (* strictly 4 hex digits: the OCaml int literal syntax that
     [int_of_string "0x…"] accepts must be rejected *)
  List.iter
    (fun bad ->
      match Json.of_string (Printf.sprintf "\"%s\"" bad) with
      | exception Failure _ -> ()
      | j ->
        Alcotest.failf "accepted bad \\u escape %s as %s" bad
          (Json.to_string j))
    [
      "\\u12_3" (* underscore is an OCaml-ism, not hex *);
      "\\u12";
      "\\uX000";
      "\\u-123";
      (* lone surrogate halves must not leak into the output *)
      "\\ud800";
      "\\udc00";
      "\\ud83d";
      "\\ud83dx";
      "\\ud83d\\u0041" (* high half followed by a non-low escape *);
    ];
  (* emitted control characters round-trip through the strict path *)
  let j = Json.Str "ctl \x01\x1f" in
  Alcotest.(check bool) "control chars round-trip" true
    (Json.of_string (Json.to_string j) = j)

let tests =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge tracks peak" `Quick test_gauge_peak;
    Alcotest.test_case "span gated on enable" `Quick test_span_enable_gate;
    Alcotest.test_case "span nesting aggregates" `Quick
      test_span_nesting_aggregates;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_exception_safety;
    Alcotest.test_case "jsonl sink round-trips" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "disabled registry fast path" `Quick
      test_disabled_fast_path;
    Alcotest.test_case "json parser round-trips" `Quick test_json_parser;
    Alcotest.test_case "json unicode escapes" `Quick
      test_json_unicode_escapes;
  ]

let () = Alcotest.run "telemetry" [ ("telemetry", tests) ]
