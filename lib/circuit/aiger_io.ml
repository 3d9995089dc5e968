(* AIGER reader/writer (ascii [aag] and binary [aig] formats).

   The reader accepts both formats (dispatching on the header magic),
   supports AIGER 1.9 bad-state properties (the [B] section), and maps
   latch resets 0 / 1 / self-literal onto register initial values
   [`Zero] / [`One] / [`Free]. Bad-state properties are declared as
   ordinary circuit outputs (named from the symbol table, else [b<k>])
   so the rest of the system — [Property.of_output], [verify], [lint],
   [serve] — sees them exactly like `.bench` outputs.

   Errors follow the [Bench_io] discipline: [Failure] with a message
   starting ["Aiger_io: line <n>: ..."] (or [byte <n>] inside the
   binary AND section). *)

module B = Circuit.Builder

let syntax_error line msg =
  failwith (Printf.sprintf "Aiger_io: line %d: %s" line msg)

let byte_error pos msg =
  failwith (Printf.sprintf "Aiger_io: byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type cursor = { text : string; mutable pos : int; mutable line : int }

let next_line cur =
  if cur.pos >= String.length cur.text then None
  else begin
    let start = cur.pos in
    let stop =
      match String.index_from_opt cur.text start '\n' with
      | Some i -> i
      | None -> String.length cur.text
    in
    cur.pos <- stop + 1;
    cur.line <- cur.line + 1;
    Some (String.sub cur.text start (stop - start))
  end

let require_line cur what =
  match next_line cur with
  | Some l -> l
  | None -> syntax_error cur.line (Printf.sprintf "missing %s line" what)

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let nat_of_token cur tok =
  match int_of_string_opt tok with
  | Some n when n >= 0 -> n
  | _ ->
    syntax_error cur.line (Printf.sprintf "expected a natural number, got %S" tok)

let nats_of_line cur line = List.map (nat_of_token cur) (tokens line)

type header = {
  binary : bool;
  m : int;  (** maximum variable index *)
  i : int;  (** inputs *)
  l : int;  (** latches *)
  o : int;  (** outputs *)
  a : int;  (** AND gates *)
  b : int;  (** bad-state properties (AIGER 1.9) *)
}

(* A binary file's inputs are implicit, so only the header bounds how
   many the reader builds: a 31-byte file could otherwise ask for 10^8. *)
let max_inputs = 1 lsl 20

let parse_header cur =
  let line = require_line cur "header" in
  match tokens line with
  | magic :: rest when magic = "aag" || magic = "aig" ->
    let binary = magic = "aig" in
    let ns = List.map (nat_of_token cur) rest in
    (match ns with
    | m :: i :: l :: o :: a :: opt ->
      let b, rest19 =
        match opt with [] -> (0, []) | b :: tl -> (b, tl)
      in
      if List.exists (fun n -> n <> 0) rest19 then
        syntax_error cur.line
          "invariant constraints, justice and fairness properties are not \
           supported";
      if m < i + l + a then
        syntax_error cur.line
          (Printf.sprintf "header M = %d < I + L + A = %d" m (i + l + a));
      if i > max_inputs then
        syntax_error cur.line
          (Printf.sprintf "header I = %d exceeds the limit of %d inputs" i
             max_inputs);
      if binary && m <> i + l + a then
        syntax_error cur.line
          (Printf.sprintf "binary header requires M = I + L + A, got %d <> %d"
             m (i + l + a));
      { binary; m; i; l; o; a; b }
    | _ ->
      syntax_error cur.line
        (Printf.sprintf "header %S: expected M I L O A [B]" line))
  | _ ->
    syntax_error cur.line
      (Printf.sprintf "expected an AIGER header (aag/aig), got %S"
         (if String.length line > 40 then String.sub line 0 40 else line))

(* One 7-bit-per-byte little-endian varint (the binary delta code). *)
let read_varint cur =
  let rec go shift acc =
    if cur.pos >= String.length cur.text then
      byte_error cur.pos "unexpected end of file in AND section";
    let byte = Char.code cur.text.[cur.pos] in
    cur.pos <- cur.pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

type latch_decl = { reset : int; next_lit : int; decl_line : int }

let parse (text : string) : Circuit.t =
  let cur = { text; pos = 0; line = 0 } in
  let h = parse_header cur in
  (* Input literals: implicit in binary, checked in ascii. *)
  if not h.binary then
    for k = 0 to h.i - 1 do
      let line = require_line cur "input" in
      match nats_of_line cur line with
      | [ lit ] when lit = 2 * (k + 1) -> ()
      | [ lit ] ->
        syntax_error cur.line
          (Printf.sprintf "input %d: expected literal %d, got %d" k
             (2 * (k + 1))
             lit)
      | _ -> syntax_error cur.line "input line must hold a single literal"
    done;
  (* Latches: [lit next [reset]] in ascii, [next [reset]] in binary.
     Sections are read into lists, so memory follows the lines present,
     never a count the header claims. *)
  let latches =
    List.init h.l (fun k ->
        let lit = 2 * (h.i + k + 1) in
        let line = require_line cur "latch" in
        let ns = nats_of_line cur line in
        let ns =
          if h.binary then ns
          else
            match ns with
            | l0 :: rest when l0 = lit -> rest
            | l0 :: _ ->
              syntax_error cur.line
                (Printf.sprintf "latch %d: expected literal %d, got %d" k lit
                   l0)
            | [] -> syntax_error cur.line "empty latch line"
        in
        match ns with
        | [ next_lit ] -> { reset = 0; next_lit; decl_line = cur.line }
        | [ next_lit; reset ] ->
          if reset <> 0 && reset <> 1 && reset <> lit then
            syntax_error cur.line
              (Printf.sprintf
                 "latch %d: reset must be 0, 1 or the latch literal %d, got %d"
                 k lit reset);
          { reset; next_lit; decl_line = cur.line }
        | _ -> syntax_error cur.line "latch line must hold next [reset]")
  in
  let read_lit_lines what n =
    List.init n (fun k ->
        let line = require_line cur what in
        match nats_of_line cur line with
        | [ lit ] -> (lit, cur.line)
        | _ ->
          syntax_error cur.line
            (Printf.sprintf "%s %d line must hold a single literal" what k))
  in
  let outputs = read_lit_lines "output" h.o in
  let bads = read_lit_lines "bad" h.b in
  (* AND gates: var -> (rhs0, rhs1, source position). *)
  let ands : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  if h.binary then
    for k = 0 to h.a - 1 do
      let v = h.i + h.l + k + 1 in
      let lhs = 2 * v in
      let at = cur.pos in
      let delta0 = read_varint cur in
      let delta1 = read_varint cur in
      let rhs0 = lhs - delta0 in
      let rhs1 = rhs0 - delta1 in
      if rhs1 < 0 then
        byte_error at
          (Printf.sprintf "AND %d: deltas %d %d underflow literal %d" k delta0
             delta1 lhs);
      Hashtbl.replace ands v (rhs0, rhs1, at)
    done
  else
    for k = 0 to h.a - 1 do
      let line = require_line cur "AND" in
      match nats_of_line cur line with
      | [ lhs; rhs0; rhs1 ] ->
        if lhs land 1 = 1 then
          syntax_error cur.line
            (Printf.sprintf "AND %d: left-hand side %d is negated" k lhs);
        let v = lhs / 2 in
        if v <= h.i + h.l || v > h.m then
          syntax_error cur.line
            (Printf.sprintf "AND %d: left-hand side %d is not an AND variable"
               k lhs);
        if Hashtbl.mem ands v then
          syntax_error cur.line
            (Printf.sprintf "AND %d: redefinition of literal %d" k lhs);
        Hashtbl.replace ands v (rhs0, rhs1, cur.line)
      | _ -> syntax_error cur.line "AND line must hold lhs rhs0 rhs1"
    done;
  (* After the binary AND section the cursor sits on a byte boundary;
     resynchronise the line counter for symbol-table errors. *)
  if h.binary then begin
    let n = ref 0 in
    for p = 0 to cur.pos - 1 do
      if text.[p] = '\n' then incr n
    done;
    cur.line <- !n
  end;
  (* Symbol table, terminated by EOF or a comment section. *)
  (* (kind, index) -> (name, line of its symbol) *)
  let symbols : (char * int, string * int) Hashtbl.t = Hashtbl.create 17 in
  let rec read_symbols () =
    match next_line cur with
    | None -> ()
    | Some "c" -> () (* rest of the file is a comment *)
    | Some "" -> read_symbols ()
    | Some line ->
      let bad () =
        syntax_error cur.line
          (Printf.sprintf "malformed symbol-table entry %S" line)
      in
      (match String.index_opt line ' ' with
      | None -> bad ()
      | Some sp ->
        let tag = String.sub line 0 sp in
        let name = String.sub line (sp + 1) (String.length line - sp - 1) in
        if String.length tag < 2 || name = "" then bad ();
        let kind = tag.[0] in
        if not (List.mem kind [ 'i'; 'l'; 'o'; 'b' ]) then bad ();
        let idx =
          match int_of_string_opt (String.sub tag 1 (String.length tag - 1)) with
          | Some n when n >= 0 -> n
          | _ -> bad ()
        in
        let limit =
          match kind with
          | 'i' -> h.i
          | 'l' -> h.l
          | 'o' -> h.o
          | _ -> h.b
        in
        if idx >= limit then
          syntax_error cur.line
            (Printf.sprintf "symbol %s: index out of range (max %d)" tag
               (limit - 1));
        Hashtbl.replace symbols (kind, idx) (name, cur.line));
      read_symbols ()
  in
  read_symbols ();
  let sym kind idx fallback =
    match Hashtbl.find_opt symbols (kind, idx) with
    | Some (n, _) -> n
    | None -> Printf.sprintf "%c%d" fallback idx
  in
  (* An input or latch under its name; two signals of one name (from
     the symbol table or the fallback names) are a syntax error. *)
  let named kind idx make =
    let name = sym kind idx kind in
    try make name
    with Invalid_argument _ -> (
      let msg = Printf.sprintf "duplicate signal name %S" name in
      match Hashtbl.find_opt symbols (kind, idx) with
      | Some (_, line) -> syntax_error line msg
      | None -> failwith ("Aiger_io: " ^ msg))
  in
  (* Build the circuit. *)
  let b = B.create () in
  (* variable -> signal, for the variables built so far *)
  let ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for k = 0 to h.i - 1 do
    Hashtbl.replace ids (k + 1) (named 'i' k (B.input b))
  done;
  let regs =
    List.mapi
      (fun k (ld : latch_decl) ->
        let init =
          match ld.reset with
          | 0 -> `Zero
          | 1 -> `One
          | _ -> `Free (* reset = own literal: uninitialised *)
        in
        let r = named 'l' k (B.reg b ~init) in
        Hashtbl.replace ids (h.i + k + 1) r;
        r)
      latches
  in
  (* Resolve AND variables recursively (ascii files may define them in
     any order); the stack detects combinational cycles and names the
     full path, as [Bench_io] does. *)
  let building = ref [] in
  let rec lit_id ~at lit =
    if lit = 0 then B.const b false
    else if lit = 1 then B.const b true
    else begin
      let v = lit lsr 1 in
      if v > h.m then
        syntax_error at
          (Printf.sprintf "literal %d exceeds maximum variable %d" lit h.m);
      let id = var_id ~at v in
      if lit land 1 = 1 then B.not_ b id else id
    end
  and var_id ~at v =
    match Hashtbl.find_opt ids v with
    | Some id -> id
    | None -> begin
      if List.mem v !building then begin
        let rec upto acc = function
          | [] -> List.rev acc
          | x :: _ when x = v -> List.rev acc
          | x :: rest -> upto (x :: acc) rest
        in
        let path = (v :: List.rev (upto [] !building)) @ [ v ] in
        syntax_error at
          (Printf.sprintf "combinational cycle through AND variables: %s"
             (String.concat " -> " (List.map string_of_int path)))
      end;
      match Hashtbl.find_opt ands v with
      | None ->
        syntax_error at (Printf.sprintf "undefined variable %d" v)
      | Some (rhs0, rhs1, pos) ->
        let at = if h.binary then 0 else pos in
        let outer = !building in
        building := v :: outer;
        let a0 = lit_id ~at rhs0 in
        let a1 = lit_id ~at rhs1 in
        building := outer;
        let id = B.and2 b a0 a1 in
        Hashtbl.replace ids v id;
        id
    end
  in
  List.iter2
    (fun r (ld : latch_decl) ->
      try B.connect b r (lit_id ~at:ld.decl_line ld.next_lit)
      with Invalid_argument m -> syntax_error ld.decl_line m)
    regs latches;
  let declare kind fallback lits =
    List.iteri
      (fun k (lit, line) ->
        B.output b (sym kind k fallback) (lit_id ~at:line lit))
      lits
  in
  declare 'o' 'o' outputs;
  declare 'b' 'b' bads;
  try B.finalize b
  with Invalid_argument m -> failwith (Printf.sprintf "Aiger_io: %s" m)

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* Arbitrary gates are lowered to an AND-inverter graph with
   literal-level structural hashing and constant folding. Fresh AND
   variables are allocated past all input/latch variables and past the
   fanin literals they combine, so the binary delta constraint
   [lhs > rhs0 >= rhs1] holds by construction. *)

type aig = {
  mutable next_var : int;
  strash : (int * int, int) Hashtbl.t;
  mutable rev_ands : (int * int * int) list;  (** lhs, rhs0, rhs1 *)
  mutable n_ands : int;
}

let mknot lit = lit lxor 1

let mkand g a b0 =
  let a, b0 = if a >= b0 then (a, b0) else (b0, a) in
  (* a >= b0 *)
  if b0 = 0 then 0
  else if b0 = 1 then a
  else if a = b0 then a
  else if a = mknot b0 then 0
  else
    match Hashtbl.find_opt g.strash (a, b0) with
    | Some lit -> lit
    | None ->
      g.next_var <- g.next_var + 1;
      let lhs = 2 * g.next_var in
      g.rev_ands <- (lhs, a, b0) :: g.rev_ands;
      g.n_ands <- g.n_ands + 1;
      Hashtbl.replace g.strash (a, b0) lhs;
      lhs

let mkor g a b0 = mknot (mkand g (mknot a) (mknot b0))
let mkxor g a b0 = mkor g (mkand g a (mknot b0)) (mkand g (mknot a) b0)
let mkmux g sel d0 d1 = mkor g (mkand g sel d1) (mkand g (mknot sel) d0)

let fanin1 ~gate (kind : Gate.kind) = function
  | [ x ] -> x
  | lits ->
    invalid_arg
      (Printf.sprintf "Aiger_io: %s gate %S has %d fanins (expected 1)"
         (Gate.to_string kind) gate (List.length lits))

let fold1 ~gate kind op g = function
  | [] ->
    invalid_arg
      (Printf.sprintf "Aiger_io: %s gate %S has no fanins"
         (Gate.to_string kind) gate)
  | x :: rest -> List.fold_left (op g) x rest

let lower g ~gate (kind : Gate.kind) lits =
  match kind with
  | Gate.Not -> mknot (fanin1 ~gate kind lits)
  | Gate.Buf -> fanin1 ~gate kind lits
  | Gate.And -> fold1 ~gate kind mkand g lits
  | Gate.Nand -> mknot (fold1 ~gate kind mkand g lits)
  | Gate.Or -> fold1 ~gate kind mkor g lits
  | Gate.Nor -> mknot (fold1 ~gate kind mkor g lits)
  | Gate.Xor -> fold1 ~gate kind mkxor g lits
  | Gate.Xnor -> mknot (fold1 ~gate kind mkxor g lits)
  | Gate.Mux -> (
    match lits with
    | [ sel; d0; d1 ] -> mkmux g sel d0 d1
    | _ ->
      invalid_arg
        (Printf.sprintf "Aiger_io: Mux gate %S has %d fanins (expected 3)"
           gate (List.length lits)))

let encode_varint buf n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let to_string ?(binary = false) ?(bads = []) (c : Circuit.t) =
  let ni = Array.length c.Circuit.inputs in
  let nl = Array.length c.Circuit.registers in
  let lit_of = Array.make (Circuit.num_signals c) (-1) in
  Array.iteri (fun k s -> lit_of.(s) <- 2 * (k + 1)) c.Circuit.inputs;
  Array.iteri (fun k s -> lit_of.(s) <- 2 * (ni + k + 1)) c.Circuit.registers;
  let g =
    { next_var = ni + nl; strash = Hashtbl.create 97; rev_ands = []; n_ands = 0 }
  in
  Array.iter
    (fun s ->
      match Circuit.node c s with
      | Circuit.Input | Circuit.Reg _ -> ()
      | Circuit.Const bv -> lit_of.(s) <- (if bv then 1 else 0)
      | Circuit.Gate (kind, fanins) ->
        let lits =
          Array.to_list (Array.map (fun f -> lit_of.(f)) fanins)
        in
        lit_of.(s) <- lower g ~gate:(Circuit.name c s) kind lits)
    c.Circuit.topo;
  let ands = Array.of_list (List.rev g.rev_ands) in
  let m = ni + nl + g.n_ands in
  let is_bad n = List.mem n bads in
  let outs = List.filter (fun (n, _) -> not (is_bad n)) c.Circuit.outputs in
  let bad_outs = List.filter (fun (n, _) -> is_bad n) c.Circuit.outputs in
  let buf = Buffer.create 4096 in
  let magic = if binary then "aig" else "aag" in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d %d %d %d" magic m ni nl (List.length outs)
       g.n_ands);
  if bad_outs <> [] then
    Buffer.add_string buf (Printf.sprintf " %d" (List.length bad_outs));
  Buffer.add_char buf '\n';
  if not binary then
    Array.iter
      (fun s -> Buffer.add_string buf (Printf.sprintf "%d\n" lit_of.(s)))
      c.Circuit.inputs;
  Array.iteri
    (fun k s ->
      let own = 2 * (ni + k + 1) in
      let init, next =
        match Circuit.node c s with
        | Circuit.Reg { init; next } -> (init, next)
        | _ -> assert false
      in
      if not binary then Buffer.add_string buf (Printf.sprintf "%d " own);
      Buffer.add_string buf (string_of_int lit_of.(next));
      (match init with
      | `Zero -> ()
      | `One -> Buffer.add_string buf " 1"
      | `Free -> Buffer.add_string buf (Printf.sprintf " %d" own));
      Buffer.add_char buf '\n')
    c.Circuit.registers;
  List.iter
    (fun (_, s) -> Buffer.add_string buf (Printf.sprintf "%d\n" lit_of.(s)))
    outs;
  List.iter
    (fun (_, s) -> Buffer.add_string buf (Printf.sprintf "%d\n" lit_of.(s)))
    bad_outs;
  if binary then
    Array.iter
      (fun (lhs, rhs0, rhs1) ->
        encode_varint buf (lhs - rhs0);
        encode_varint buf (rhs0 - rhs1))
      ands
  else
    Array.iter
      (fun (lhs, rhs0, rhs1) ->
        Buffer.add_string buf (Printf.sprintf "%d %d %d\n" lhs rhs0 rhs1))
      ands;
  Array.iteri
    (fun k s ->
      Buffer.add_string buf (Printf.sprintf "i%d %s\n" k (Circuit.name c s)))
    c.Circuit.inputs;
  Array.iteri
    (fun k s ->
      Buffer.add_string buf (Printf.sprintf "l%d %s\n" k (Circuit.name c s)))
    c.Circuit.registers;
  List.iteri
    (fun k (n, _) -> Buffer.add_string buf (Printf.sprintf "o%d %s\n" k n))
    outs;
  List.iteri
    (fun k (n, _) -> Buffer.add_string buf (Printf.sprintf "b%d %s\n" k n))
    bad_outs;
  Buffer.contents buf

let write_file ?binary ?bads path c =
  let binary =
    match binary with
    | Some b -> b
    | None -> Filename.check_suffix path ".aig"
  in
  let oc = open_out_bin path in
  output_string oc (to_string ~binary ?bads c);
  close_out oc
