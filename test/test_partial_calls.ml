(* Partial stdlib calls in lib/: every bare [Hashtbl.find], [List.assoc],
   [Option.get], [List.hd], [List.nth] and [List.tl] outside comments and
   string literals must appear in partial_calls.allow with a reason why
   it cannot raise. A new site fails this test: handle the missing case
   (the [_opt] variant and a structured error), or add an allow-list
   line saying why the call is total there. An allow-list line whose
   site is gone fails it too, so the list stays exact.

   Allow-list lines read [file | call | reason | source line, trimmed]:
   the first three " | " separate fields, the source line may hold more.
   Lines starting with '#' and blank lines are ignored. *)

let calls =
  [
    "Hashtbl.find";
    "List.assoc";
    "Option.get";
    "List.hd";
    "List.nth";
    "List.tl";
  ]

(* Start offsets of [call] in [line] as a whole qualified name. *)
let occurrences line call =
  let n = String.length line and k = String.length call in
  let rec go i acc =
    if i + k > n then List.rev acc
    else if
      String.sub line i k = call
      && (i = 0 || not (Source_scan.ident line.[i - 1]))
      && (i + k = n || not (Source_scan.ident line.[i + k]))
    then go (i + k) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* Every site as (file, call, trimmed source line), with its line
   number for messages. *)
let sites root =
  List.concat_map
    (fun path ->
      let file = String.sub path 3 (String.length path - 3) (* "../" *) in
      let src = Source_scan.read path in
      let original = Array.of_list (String.split_on_char '\n' src) in
      List.concat
        (List.mapi
           (fun i line ->
             List.concat_map
               (fun call ->
                 List.map
                   (fun _ -> ((file, call, String.trim original.(i)), i + 1))
                   (occurrences line call))
               calls)
           (String.split_on_char '\n' (Source_scan.blank src))))
    (Source_scan.files ~suffix:".ml" root)

let allowed file =
  String.split_on_char '\n' (Source_scan.read file)
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match Source_scan.split_n " | " 3 l with
           | [ file; call; reason; line ] when String.trim reason <> "" ->
             Some (file, call, line)
           | _ -> Alcotest.failf "malformed allow-list line: %s" l)

(* Multiset difference: the elements of [xs] left after removing one
   matching [key y] for each [y] of [ys]. *)
let minus key xs ys =
  List.fold_left
    (fun xs y ->
      let rec drop = function
        | [] -> []
        | x :: rest -> if key x = y then rest else x :: drop rest
      in
      drop xs)
    xs ys

let test_allow_list () =
  let found = sites "../lib" in
  let allow = allowed "partial_calls.allow" in
  let unlisted = minus fst found allow in
  let stale = minus Fun.id allow (List.map fst found) in
  List.iter
    (fun ((file, call, text), line) ->
      Printf.printf "%s:%d: bare %s not in partial_calls.allow: %s\n" file
        line call text)
    unlisted;
  List.iter
    (fun (file, call, text) ->
      Printf.printf "partial_calls.allow: no %s left in %s at: %s\n" call file
        text)
    stale;
  Alcotest.(check int) "unlisted partial calls" 0 (List.length unlisted);
  Alcotest.(check int) "stale allow-list lines" 0 (List.length stale)

let test_blank () =
  let src = "a (* List.hd (* x *) \"*)\" *) \"List.tl\" '\"' List.nth\n" in
  Alcotest.(check (list string))
    "only the code occurrence" [ "List.nth" ]
    (List.filter (fun call -> occurrences (Source_scan.blank src) call <> []) calls)

let () =
  Alcotest.run "partial_calls"
    [
      ( "partial_calls",
        [
          Alcotest.test_case "comments and strings are skipped" `Quick
            test_blank;
          Alcotest.test_case "lib/ matches the allow-list" `Quick
            test_allow_list;
        ] );
    ]
