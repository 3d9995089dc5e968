module Bitset = Rfn_circuit.Bitset

let test_empty () =
  let s = Bitset.create 100 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list" [] (Bitset.to_list s);
  for i = 0 to 99 do
    Alcotest.(check bool) "mem" false (Bitset.mem s i)
  done

let test_add_remove () =
  let s = Bitset.create 64 in
  Bitset.add s 0;
  Bitset.add s 7;
  Bitset.add s 8;
  Bitset.add s 63;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 7; 8; 63 ]
    (Bitset.to_list s);
  Bitset.add s 7;
  Alcotest.(check int) "idempotent add" 4 (Bitset.cardinal s);
  Bitset.remove s 7;
  Alcotest.(check bool) "removed" false (Bitset.mem s 7);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal s);
  Bitset.remove s 7;
  Alcotest.(check int) "idempotent remove" 3 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index -1 out of [0,10)")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index 10 out of [0,10)")
    (fun () -> Bitset.add s 10)

let test_copy_independent () =
  let s = Bitset.of_list 32 [ 1; 2; 3 ] in
  let t = Bitset.copy s in
  Bitset.add t 10;
  Alcotest.(check bool) "copy has it" true (Bitset.mem t 10);
  Alcotest.(check bool) "original does not" false (Bitset.mem s 10)

let test_union_subset_equal () =
  let subset a b = List.for_all (Bitset.mem b) (Bitset.to_list a) in
  let a = Bitset.of_list 20 [ 1; 3; 5 ] in
  let b = Bitset.of_list 20 [ 3; 5; 7 ] in
  Alcotest.(check bool) "not subset" false (subset a b);
  Bitset.union_into b a;
  Alcotest.(check (list int)) "union" [ 1; 3; 5; 7 ] (Bitset.to_list b);
  Alcotest.(check bool) "subset after union" true (subset a b);
  let c = Bitset.of_list 20 [ 1; 3; 5; 7 ] in
  Alcotest.(check bool) "equal" true (Bitset.equal b c);
  Bitset.remove c 7;
  Alcotest.(check bool) "not equal" false (Bitset.equal b c)

let test_fold_iter_order () =
  let s = Bitset.of_list 256 [ 200; 3; 77 ] in
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "iter ascending" [ 3; 77; 200 ]
    (List.rev !seen);
  Alcotest.(check int) "fold sums" 280 (Bitset.fold (fun i a -> i + a) s 0)

let qcheck_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"bitset agrees with list-set model"
       QCheck.(list (int_bound 127))
       (fun ops ->
         let s = Bitset.create 128 in
         let model = Hashtbl.create 16 in
         List.iter
           (fun i ->
             if i mod 3 = 0 then begin
               Bitset.remove s i;
               Hashtbl.remove model i
             end
             else begin
               Bitset.add s i;
               Hashtbl.replace model i ()
             end)
           ops;
         Bitset.cardinal s = Hashtbl.length model
         && List.for_all (fun i -> Hashtbl.mem model i) (Bitset.to_list s)))

let tests =
  [
    Alcotest.test_case "empty set" `Quick test_empty;
    Alcotest.test_case "add and remove" `Quick test_add_remove;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "union, subset, equal" `Quick test_union_subset_equal;
    Alcotest.test_case "fold and iter order" `Quick test_fold_iter_order;
    qcheck_model;
  ]

let () = Alcotest.run "bitset" [ ("bitset", tests) ]
