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

(* [src] with comments and the contents of string and character
   literals replaced by spaces, newlines kept. *)
let blank src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let wipe i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  (* a string literal opening at [i]; returns the index after it *)
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' ->
        wipe i;
        if i + 1 < n then wipe (i + 1);
        string_end (i + 2)
      | '"' -> i + 1
      | _ ->
        wipe i;
        string_end (i + 1)
  in
  let rec code i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
        wipe i;
        wipe (i + 1);
        comment 1 (i + 2)
      | '"' -> code (string_end (i + 1))
      | '\'' when i + 2 < n && src.[i + 1] = '\\' ->
        let j = ref (i + 2) in
        while !j < n && src.[!j] <> '\'' do
          wipe !j;
          incr j
        done;
        wipe (i + 1);
        code (!j + 1)
      | '\'' when i + 2 < n && src.[i + 2] = '\'' ->
        wipe (i + 1);
        code (i + 3)
      | _ -> code (i + 1)
  and comment depth i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
        wipe i;
        wipe (i + 1);
        comment (depth + 1) (i + 2)
      | '*' when i + 1 < n && src.[i + 1] = ')' ->
        wipe i;
        wipe (i + 1);
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      | '"' ->
        wipe i;
        let j = string_end (i + 1) in
        wipe (j - 1);
        comment depth j
      | _ ->
        wipe i;
        comment depth (i + 1)
  in
  code 0;
  Bytes.to_string out

let ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true
  | _ -> false

(* Start offsets of [call] in [line] as a whole qualified name. *)
let occurrences line call =
  let n = String.length line and k = String.length call in
  let rec go i acc =
    if i + k > n then List.rev acc
    else if
      String.sub line i k = call
      && (i = 0 || not (ident line.[i - 1]))
      && (i + k = n || not (ident line.[i + k]))
    then go (i + k) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix f ".ml" then [ path ]
         else [])

let read file = In_channel.with_open_bin file In_channel.input_all

(* Every site as (file, call, trimmed source line), with its line
   number for messages. *)
let sites root =
  List.concat_map
    (fun path ->
      let file = String.sub path 3 (String.length path - 3) (* "../" *) in
      let src = read path in
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
           (String.split_on_char '\n' (blank src))))
    (ml_files root)

(* [s] split at the first [k] occurrences of [sep]. *)
let rec split_n sep k s =
  let n = String.length s and m = String.length sep in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when k > 0 ->
    String.sub s 0 i :: split_n sep (k - 1) (String.sub s (i + m) (n - i - m))
  | _ -> [ s ]

let allowed file =
  String.split_on_char '\n' (read file)
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match split_n " | " 3 l with
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
    (List.filter (fun call -> occurrences (blank src) call <> []) calls)

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
