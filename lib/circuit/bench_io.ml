module B = Circuit.Builder

type def =
  | Dgate of Gate.kind * string list
  | Dreg of Circuit.init * string
  | Dconst of bool

let syntax_error line msg =
  failwith (Printf.sprintf "Bench_io: line %d: %s" line msg)

let split_args s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_line lineno line (inputs, outputs, defs) =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then (inputs, outputs, defs)
  else
    let paren_form prefix =
      let plen = String.length prefix in
      if
        String.length line > plen + 1
        && String.uppercase_ascii (String.sub line 0 plen) = prefix
        && line.[plen] = '('
        && line.[String.length line - 1] = ')'
      then Some (String.trim (String.sub line (plen + 1) (String.length line - plen - 2)))
      else None
    in
    match paren_form "INPUT" with
    | Some name -> ((lineno, name) :: inputs, outputs, defs)
    | None -> (
      match paren_form "OUTPUT" with
      | Some name -> (inputs, (lineno, name) :: outputs, defs)
      | None -> (
        match String.index_opt line '=' with
        | None -> syntax_error lineno "expected INPUT, OUTPUT or definition"
        | Some eq ->
          let name = String.trim (String.sub line 0 eq) in
          let rhs =
            String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
          in
          if name = "" then syntax_error lineno "empty signal name";
          let def =
            match String.uppercase_ascii rhs with
            | "CONST0" -> Dconst false
            | "CONST1" -> Dconst true
            | _ -> (
              match (String.index_opt rhs '(', String.rindex_opt rhs ')') with
              | Some op, Some cl when op < cl ->
                let op_name = String.trim (String.sub rhs 0 op) in
                let args = split_args (String.sub rhs (op + 1) (cl - op - 1)) in
                let kind = String.uppercase_ascii op_name in
                let reg init =
                  match args with
                  | [ d ] -> Dreg (init, d)
                  | _ -> syntax_error lineno "DFF takes exactly one fanin"
                in
                if kind = "DFF" then reg `Zero
                else if kind = "DFF1" then reg `One
                else if kind = "DFFX" then reg `Free
                else (
                  match Gate.of_string op_name with
                  | Some k ->
                    if args = [] then syntax_error lineno "gate with no fanins";
                    Dgate (k, args)
                  | None ->
                    syntax_error lineno
                      (Printf.sprintf "unknown operator %S" op_name))
              | _ -> syntax_error lineno "malformed right-hand side")
          in
          (inputs, outputs, (lineno, name, def) :: defs)))

let parse text =
  let lines = String.split_on_char '\n' text in
  let inputs, outputs, defs =
    List.fold_left
      (fun acc (lineno, line) -> parse_line lineno line acc)
      ([], [], [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let inputs = List.rev inputs
  and outputs = List.rev outputs
  and defs = List.rev defs in
  let b = B.create () in
  let table : (string, def) Hashtbl.t = Hashtbl.create 97 in
  let line_of : (string, int) Hashtbl.t = Hashtbl.create 97 in
  List.iter
    (fun (lineno, name, def) ->
      if Hashtbl.mem table name then
        syntax_error lineno (Printf.sprintf "redefinition of %S" name);
      Hashtbl.add table name def;
      Hashtbl.add line_of name lineno)
    defs;
  let ids : (string, int) Hashtbl.t = Hashtbl.create 97 in
  List.iter
    (fun (lineno, name) ->
      if Hashtbl.mem table name || Hashtbl.mem ids name then
        syntax_error lineno (Printf.sprintf "INPUT %S also defined" name);
      Hashtbl.add ids name (B.input b name))
    inputs;
  (* Registers first so that feedback through them is legal. *)
  List.iter
    (fun (_, name, def) ->
      match def with
      | Dreg (init, _) -> Hashtbl.add ids name (B.reg b ~init name)
      | Dgate _ | Dconst _ -> ())
    defs;
  (* [building] is the resolution stack (most recent first): membership
     detects a combinational cycle, and the stack itself names the full
     ordered cycle path in the error. [at] is the line referencing
     [name], used when [name] has no definition of its own. *)
  let building : string list ref = ref [] in
  let rec resolve ~at name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> (
      if List.mem name !building then begin
        let rec ancestors acc = function
          | [] -> List.rev acc
          | x :: _ when x = name -> List.rev acc
          | x :: rest -> ancestors (x :: acc) rest
        in
        let path =
          (name :: List.rev (ancestors [] !building)) @ [ name ]
        in
        syntax_error
          (Option.value (Hashtbl.find_opt line_of name) ~default:at)
          (Printf.sprintf "combinational cycle: %s"
             (String.concat " -> " path))
      end;
      let outer = !building in
      building := name :: outer;
      let id =
        match Hashtbl.find_opt table name with
        | None ->
          syntax_error at (Printf.sprintf "undefined signal %S" name)
        | Some (Dconst bv) ->
          (* The builder interns constants under fixed names; reuse the
             cell when the netlist uses that very name (as printed
             netlists do) and wrap in a named BUF otherwise. *)
          let cid = B.const b bv in
          if name = (if bv then "const_1" else "const_0") then cid
          else B.gate b ~name Gate.Buf [| cid |]
        | Some (Dgate (kind, args)) ->
          let def_line =
            Option.value (Hashtbl.find_opt line_of name) ~default:at
          in
          let fanins =
            Array.of_list (List.map (resolve ~at:def_line) args)
          in
          B.gate b ~name kind fanins
        | Some (Dreg _) -> assert false (* created above *)
      in
      building := outer;
      Hashtbl.add ids name id;
      id)
  in
  List.iter
    (fun (lineno, name, def) ->
      match def with
      | Dreg (_, d) ->
        let r = resolve ~at:lineno name (* the register, created above *) in
        (try B.connect b r (resolve ~at:lineno d)
         with Invalid_argument m -> syntax_error lineno m)
      | Dgate _ | Dconst _ -> ignore (resolve ~at:lineno name))
    defs;
  List.iter
    (fun (lineno, name) ->
      match Hashtbl.find_opt ids name with
      | Some id -> B.output b name id
      | None ->
        syntax_error lineno (Printf.sprintf "OUTPUT %S undefined" name))
    outputs;
  B.finalize b

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let print ppf (c : Circuit.t) =
  let name s = Circuit.name c s in
  Array.iter (fun s -> Format.fprintf ppf "INPUT(%s)@." (name s)) c.inputs;
  List.iter (fun (n, _) -> Format.fprintf ppf "OUTPUT(%s)@." n) c.outputs;
  (* Outputs that rename a signal need a BUF definition line. *)
  List.iter
    (fun (n, s) ->
      if n <> name s then Format.fprintf ppf "%s = BUF(%s)@." n (name s))
    c.outputs;
  Array.iter
    (fun s ->
      match Circuit.node c s with
      | Circuit.Input -> ()
      | Circuit.Const bv ->
        Format.fprintf ppf "%s = CONST%d@." (name s) (if bv then 1 else 0)
      | Circuit.Gate (kind, fanins) ->
        Format.fprintf ppf "%s = %s(%s)@." (name s) (Gate.to_string kind)
          (String.concat ", " (Array.to_list (Array.map name fanins)))
      | Circuit.Reg { init; next } ->
        let kw =
          match init with `Zero -> "DFF" | `One -> "DFF1" | `Free -> "DFFX"
        in
        Format.fprintf ppf "%s = %s(%s)@." (name s) kw (name next))
    c.topo

let to_string c = Format.asprintf "%a" print c
