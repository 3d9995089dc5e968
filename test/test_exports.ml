(* Exports in lib/: every [val] in a lib/**/*.mli must be used, as a
   word, by some .ml file of a user path (lib/, bin/, bench/,
   examples/, rfnbench/) other than its own module's .ml. A val no
   user path reads fails this test: delete it (with its body when its
   module does not read it either), or add an exports.allow line
   naming the invariant a test states with it. An allow-list line
   whose val is gone or has gained a user fails it too, so the list
   stays exact.

   Allow-list lines read [file | val | reason]. Lines starting with '#'
   and blank lines are ignored. *)

let user_dirs = [ "../lib"; "../bin"; "../bench"; "../examples"; "../rfnbench" ]

let word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The maximal runs of identifier characters in [src], with their start
   offsets. *)
let words src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else if word_char src.[i] then begin
      let j = ref i in
      while !j < n && word_char src.[!j] do
        incr j
      done;
      go !j ((i, String.sub src i (!j - i)) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* Names declared by [val] in an interface, operators excluded. *)
let vals mli =
  let src = Source_scan.blank (Source_scan.read mli) in
  let rec go = function
    | (i, "val") :: (j, name) :: rest
      when String.trim (String.sub src (i + 3) (j - i - 3)) = ""
           && match name.[0] with 'a' .. 'z' | '_' -> true | _ -> false ->
      name :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (words src)

let strip path = String.sub path 3 (String.length path - 3) (* "../" *)

(* Every val of lib/ that no user path reads, as (mli, name). *)
let unused () =
  let sources =
    List.concat_map (Source_scan.files ~suffix:".ml") user_dirs
    |> List.map (fun path ->
           let seen = Hashtbl.create 256 in
           List.iter
             (fun (_, w) -> Hashtbl.replace seen w ())
             (words (Source_scan.blank (Source_scan.read path)));
           (path, seen))
  in
  List.concat_map
    (fun mli ->
      let own = Filename.remove_extension mli ^ ".ml" in
      List.filter_map
        (fun name ->
          if
            List.exists
              (fun (path, seen) -> path <> own && Hashtbl.mem seen name)
              sources
          then None
          else Some (strip mli, name))
        (List.sort_uniq compare (vals mli)))
    (Source_scan.files ~suffix:".mli" "../lib")

let allowed file =
  String.split_on_char '\n' (Source_scan.read file)
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match Source_scan.split_n " | " 2 l with
           | [ file; name; reason ] when String.trim reason <> "" ->
             Some (file, name)
           | _ -> Alcotest.failf "malformed allow-list line: %s" l)

let test_allow_list () =
  let found = unused () in
  let allow = allowed "exports.allow" in
  let unlisted = List.filter (fun e -> not (List.mem e allow)) found in
  let stale = List.filter (fun e -> not (List.mem e found)) allow in
  List.iter
    (fun (file, name) ->
      Printf.printf "%s: val %s has no user outside its module\n" file name)
    unlisted;
  List.iter
    (fun (file, name) ->
      Printf.printf "exports.allow: %s no longer exports an unused %s\n" file
        name)
    stale;
  Alcotest.(check int) "unused exports" 0 (List.length unlisted);
  Alcotest.(check int) "stale allow-list lines" 0 (List.length stale)

let test_vals () =
  let src =
    "val f : int\n(* val g : int *)\nval ( let* ) : t\n  val h_2 : t\n\
     let s = \"val k\"\n"
  in
  let file = Filename.temp_file "exports" ".mli" in
  Out_channel.with_open_bin file (fun oc -> output_string oc src);
  let names = vals file in
  Sys.remove file;
  Alcotest.(check (list string)) "declared names" [ "f"; "h_2" ] names

let () =
  Alcotest.run "exports"
    [
      ( "exports",
        [
          Alcotest.test_case "val declarations are found" `Quick test_vals;
          Alcotest.test_case "lib/ exports match the allow-list" `Quick
            test_allow_list;
        ] );
    ]
