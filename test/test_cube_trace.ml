open Rfn_circuit

let test_of_list_sorts_dedups () =
  let c = Cube.of_list [ (5, true); (1, false); (5, true) ] in
  Alcotest.(check (list (pair int bool)))
    "sorted, deduplicated"
    [ (1, false); (5, true) ]
    (Cube.to_list c)

let test_of_list_contradiction () =
  try
    ignore (Cube.of_list [ (3, true); (3, false) ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_value_assign () =
  let c = Cube.of_list [ (2, true) ] in
  Alcotest.(check (option bool)) "present" (Some true) (Cube.value c 2);
  Alcotest.(check (option bool)) "absent" None (Cube.value c 7);
  let c = Cube.assign c 7 false in
  Alcotest.(check (option bool)) "assigned" (Some false) (Cube.value c 7);
  Alcotest.(check int) "size" 2 (Cube.size c);
  (try
     ignore (Cube.assign c 2 false);
     Alcotest.fail "expected contradiction"
   with Invalid_argument _ -> ());
  (* re-assigning the same value is fine *)
  Alcotest.(check int) "idempotent" 2 (Cube.size (Cube.assign c 2 true))

let test_meet () =
  let a = Cube.of_list [ (1, true); (3, false) ] in
  let b = Cube.of_list [ (2, true); (3, false) ] in
  (match Cube.meet a b with
  | Some m ->
    Alcotest.(check (list (pair int bool)))
      "merged"
      [ (1, true); (2, true); (3, false) ]
      (Cube.to_list m)
  | None -> Alcotest.fail "expected compatible");
  let c = Cube.of_list [ (1, false) ] in
  Alcotest.(check bool) "conflicting meet" true (Cube.meet a c = None);
  Alcotest.(check bool) "conflicts" true (Cube.conflicts a c);
  Alcotest.(check bool) "no conflict" false (Cube.conflicts a b)

let test_restrict () =
  let a = Cube.of_list [ (1, true); (2, false); (3, true) ] in
  let r = Cube.restrict a ~keep:(fun s -> s mod 2 = 1) in
  Alcotest.(check (list (pair int bool)))
    "odd signals kept"
    [ (1, true); (3, true) ]
    (Cube.to_list r)

let meet_qcheck =
  let cube_gen =
    QCheck.Gen.(
      list_size (int_bound 8) (pair (int_bound 10) bool) >|= fun l ->
      (* drop contradictions so of_list accepts *)
      let tbl = Hashtbl.create 8 in
      List.iter (fun (s, v) -> if not (Hashtbl.mem tbl s) then Hashtbl.add tbl s v) l;
      Cube.of_list (Hashtbl.fold (fun s v acc -> (s, v) :: acc) tbl []))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"meet is conjunction"
       (QCheck.make (QCheck.Gen.pair cube_gen cube_gen))
       (fun (a, b) ->
         match Cube.meet a b with
         | None ->
           (* some signal with opposite values *)
           List.exists
             (fun (s, v) -> Cube.value b s = Some (not v))
             (Cube.to_list a)
         | Some m ->
           List.for_all (fun (s, v) -> Cube.value m s = Some v) (Cube.to_list a)
           && List.for_all
                (fun (s, v) -> Cube.value m s = Some v)
                (Cube.to_list b)
           && List.for_all
                (fun (s, v) ->
                  Cube.value a s = Some v || Cube.value b s = Some v)
                (Cube.to_list m)))

let test_trace_invariants () =
  let s0 = Cube.of_list [ (0, false) ] and s1 = Cube.of_list [ (0, true) ] in
  let i0 = Cube.of_list [ (1, true) ] in
  let t = Trace.make ~states:[| s0; s1 |] ~inputs:[| i0 |] in
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check (list (pair int bool))) "state 1" [ (0, true) ]
    (Cube.to_list (Trace.state t 1));
  Alcotest.(check (list (pair int bool))) "missing final input is empty" []
    (Cube.to_list (Trace.input t 1));
  (* with a final-cycle witness *)
  let t2 = Trace.make ~states:[| s0; s1 |] ~inputs:[| i0; i0 |] in
  Alcotest.(check (list (pair int bool))) "final witness" [ (1, true) ]
    (Cube.to_list (Trace.input t2 1));
  (try
     ignore (Trace.make ~states:[| s0 |] ~inputs:[| i0; i0 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Trace.make ~states:[||] ~inputs:[||]);
    Alcotest.fail "empty trace rejected"
  with Invalid_argument _ -> ()

let test_trace_pins () =
  let s0 = Cube.of_list [ (0, false) ] and s1 = Cube.of_list [ (0, true) ] in
  let i0 = Cube.of_list [ (1, true) ] in
  let t = Trace.make ~states:[| s0; s1 |] ~inputs:[| i0 |] in
  Alcotest.(check (list (triple int int bool)))
    "every state and input literal, last cycle first"
    [ (1, 0, true); (0, 1, true); (0, 0, false) ]
    (Trace.pins t)

let tests =
  [
    Alcotest.test_case "of_list sorts and dedups" `Quick
      test_of_list_sorts_dedups;
    Alcotest.test_case "of_list rejects contradictions" `Quick
      test_of_list_contradiction;
    Alcotest.test_case "value and assign" `Quick test_value_assign;
    Alcotest.test_case "meet" `Quick test_meet;
    Alcotest.test_case "restrict" `Quick test_restrict;
    meet_qcheck;
    Alcotest.test_case "trace length invariants" `Quick test_trace_invariants;
    Alcotest.test_case "trace pins" `Quick test_trace_pins;
  ]

let () = Alcotest.run "cube-trace" [ ("cube-trace", tests) ]
