(* Source scanning shared by the checks that read lib/ as text
   (test_partial_calls, test_exports). *)

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

(* Characters of a (possibly qualified) OCaml name. *)
let ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true
  | _ -> false

(* Files under [dir] (recursively, sorted) whose name ends in [suffix]. *)
let rec files ~suffix dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then files ~suffix path
         else if Filename.check_suffix f suffix then [ path ]
         else [])

let read file = In_channel.with_open_bin file In_channel.input_all

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
