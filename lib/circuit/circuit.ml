type init = [ `Zero | `One | `Free ]

type node =
  | Input
  | Const of bool
  | Gate of Gate.kind * int array
  | Reg of { init : init; next : int }

type t = {
  nodes : node array;
  names : string array;
  inputs : int array;
  registers : int array;
  outputs : (string * int) list;
  topo : int array;
  fanouts : int array array;
  level : int array;
}

let num_signals t = Array.length t.nodes

let num_gates t =
  Array.fold_left
    (fun n nd -> match nd with Gate _ -> n + 1 | _ -> n)
    0 t.nodes

let num_registers t = Array.length t.registers
let num_inputs t = Array.length t.inputs
let node t s = t.nodes.(s)
let name t s = t.names.(s)

let find t nm =
  let n = Array.length t.names in
  let rec loop i =
    if i >= n then raise Not_found
    else if String.equal t.names.(i) nm then i
    else loop (i + 1)
  in
  loop 0

let output t nm =
  match List.assoc_opt nm t.outputs with
  | Some s -> s
  | None ->
    (* Invalid_argument naming the output, per the Varmap diagnostic
       convention; a bare List.assoc raised an anonymous Not_found that
       crashed callers as far away as the serve loop. *)
    invalid_arg (Printf.sprintf "Circuit.output: no output %S" nm)
let is_reg t s = match t.nodes.(s) with Reg _ -> true | _ -> false

let eval t ~input ~state =
  let values = Array.make (Array.length t.nodes) false in
  let get s = values.(s) in
  Array.iter
    (fun s ->
      values.(s) <-
        (match t.nodes.(s) with
        | Input -> input s
        | Const b -> b
        | Reg _ -> state s
        | Gate (kind, fanins) -> Gate.eval kind get fanins))
    t.topo;
  values

let step t ~input ~state =
  let values = eval t ~input ~state in
  let next r =
    match t.nodes.(r) with
    | Reg { next; _ } -> values.(next)
    | _ -> invalid_arg "Circuit.step: not a register"
  in
  (values, next)

let initial_state t ~free r =
  match t.nodes.(r) with
  | Reg { init = `Zero; _ } -> false
  | Reg { init = `One; _ } -> true
  | Reg { init = `Free; _ } -> free r
  | _ -> invalid_arg "Circuit.initial_state: not a register"

module Builder = struct
  type cell = BInput | BConst of bool | BGate of Gate.kind * int array | BReg of init

  type c = {
    mutable cells : cell array;
    mutable names_ : string array;
    mutable n : int;
    mutable outs : (string * int) list;
    next_of : (int, int) Hashtbl.t;  (* register -> next signal *)
    cons : (Gate.kind * int list, int) Hashtbl.t;  (* structural hashing *)
    consts : (bool, int) Hashtbl.t;
    by_name : (string, int) Hashtbl.t;
    mutable anon : int;
  }

  let create () =
    {
      cells = Array.make 64 BInput;
      names_ = Array.make 64 "";
      n = 0;
      outs = [];
      next_of = Hashtbl.create 97;
      cons = Hashtbl.create 997;
      consts = Hashtbl.create 3;
      by_name = Hashtbl.create 997;
      anon = 0;
    }

  let grow c =
    if c.n >= Array.length c.cells then begin
      let len = 2 * Array.length c.cells in
      let cells = Array.make len BInput in
      Array.blit c.cells 0 cells 0 c.n;
      c.cells <- cells;
      let names = Array.make len "" in
      Array.blit c.names_ 0 names 0 c.n;
      c.names_ <- names
    end

  (* Skips names already taken, so an input named like a generated
     name cannot clash with a later gate. *)
  let rec fresh_name c prefix =
    c.anon <- c.anon + 1;
    let name = Printf.sprintf "%s_%d" prefix c.anon in
    if Hashtbl.mem c.by_name name then fresh_name c prefix else name

  let add c name cell =
    grow c;
    let id = c.n in
    if Hashtbl.mem c.by_name name then
      invalid_arg (Printf.sprintf "Circuit.Builder: duplicate name %S" name);
    Hashtbl.add c.by_name name id;
    c.cells.(id) <- cell;
    c.names_.(id) <- name;
    c.n <- id + 1;
    id

  let input c name = add c name BInput

  let const c b =
    match Hashtbl.find_opt c.consts b with
    | Some id -> id
    | None ->
      let id = add c (if b then "const_1" else "const_0") (BConst b) in
      Hashtbl.add c.consts b id;
      id

  let gate c ?name kind fanins =
    if not (Gate.arity_ok kind (Array.length fanins)) then
      invalid_arg
        (Printf.sprintf "Circuit.Builder: bad arity %d for %s"
           (Array.length fanins) (Gate.to_string kind));
    Array.iter
      (fun s ->
        if s < 0 || s >= c.n then
          invalid_arg "Circuit.Builder: fanin signal out of range")
      fanins;
    (* Cheap structural simplifications that keep generated designs from
       drowning in trivial cells. Named gates are never simplified away
       so that lookups by name stay meaningful. *)
    let simplified =
      if name <> None then None
      else
        match (kind, fanins) with
        | (Gate.And | Gate.Or), [| a |] -> Some a
        | Gate.Buf, [| a |] -> Some a
        | Gate.Not, [| a |] -> (
          match c.cells.(a) with
          | BGate (Gate.Not, inner) -> Some inner.(0)
          | BConst b -> Some (const c (not b))
          | _ -> None)
        | _ -> None
    in
    match simplified with
    | Some s -> s
    | None -> (
      let key = (kind, Array.to_list fanins) in
      match (name, Hashtbl.find_opt c.cons key) with
      | None, Some id -> id
      | _ ->
        let name =
          match name with
          | Some n -> n
          | None -> fresh_name c (String.lowercase_ascii (Gate.to_string kind))
        in
        let id = add c name (BGate (kind, Array.copy fanins)) in
        if not (Hashtbl.mem c.cons key) then Hashtbl.add c.cons key id;
        id)

  let reg c ?(init = `Zero) name = add c name (BReg init)

  let connect c r d =
    (match c.cells.(r) with
    | BReg _ -> ()
    | _ -> invalid_arg "Circuit.Builder.connect: not a register");
    if Hashtbl.mem c.next_of r then
      invalid_arg "Circuit.Builder.connect: register already connected";
    if d < 0 || d >= c.n then
      invalid_arg "Circuit.Builder.connect: signal out of range";
    Hashtbl.add c.next_of r d

  let reg_of c ?init name d =
    let r = reg c ?init name in
    connect c r d;
    r

  let output c name s =
    if s < 0 || s >= c.n then
      invalid_arg "Circuit.Builder.output: signal out of range";
    c.outs <- (name, s) :: c.outs

  let not_ c a = gate c Gate.Not [| a |]
  let and2 c a b = gate c Gate.And [| a; b |]
  let or2 c a b = gate c Gate.Or [| a; b |]
  let xor2 c a b = gate c Gate.Xor [| a; b |]

  let and_l c = function
    | [] -> const c true
    | [ a ] -> a
    | l -> gate c Gate.And (Array.of_list l)

  let or_l c = function
    | [] -> const c false
    | [ a ] -> a
    | l -> gate c Gate.Or (Array.of_list l)

  let mux c sel d0 d1 = gate c Gate.Mux [| sel; d0; d1 |]
  let eq2 c a b = gate c Gate.Xnor [| a; b |]

  let finalize c =
    let n = c.n in
    let nodes =
      Array.init n (fun i ->
          match c.cells.(i) with
          | BInput -> Input
          | BConst b -> Const b
          | BGate (kind, fanins) -> Gate (kind, fanins)
          | BReg init -> (
            match Hashtbl.find_opt c.next_of i with
            | Some next -> Reg { init; next }
            | None ->
              invalid_arg
                (Printf.sprintf
                   "Circuit.Builder.finalize: register %S never connected"
                   c.names_.(i))))
    in
    let names = Array.sub c.names_ 0 n in
    let inputs = ref [] and registers = ref [] in
    Array.iteri
      (fun i nd ->
        match nd with
        | Input -> inputs := i :: !inputs
        | Reg _ -> registers := i :: !registers
        | Const _ | Gate _ -> ())
      nodes;
    (* Topological sort of the combinational graph (registers break
       cycles: a register's output is a source, its next input a sink). *)
    let level = Array.make n 0 in
    let state = Bytes.make n '\000' in
    (* 0 unvisited, 1 on stack, 2 done *)
    let order = ref [] in
    let trail = ref [] in
    (* DFS stack of on-stack signals, most recent first *)
    let rec visit s =
      match Bytes.get state s with
      | '\002' -> ()
      | '\001' ->
        (* the error names the full ordered cycle: each signal reads
           the next, wrapping back to [s] *)
        let rec ancestors acc = function
          | [] -> List.rev acc
          | x :: _ when x = s -> List.rev acc
          | x :: rest -> ancestors (x :: acc) rest
        in
        let path = (s :: List.rev (ancestors [] !trail)) @ [ s ] in
        invalid_arg
          (Printf.sprintf "Circuit.Builder.finalize: combinational cycle: %s"
             (String.concat " -> " (List.map (fun i -> names.(i)) path)))
      | _ ->
        Bytes.set state s '\001';
        let outer = !trail in
        trail := s :: outer;
        (match nodes.(s) with
        | Gate (_, fanins) ->
          Array.iter visit fanins;
          level.(s) <-
            1 + Array.fold_left (fun m f -> max m level.(f)) 0 fanins
        | Input | Const _ | Reg _ -> ());
        trail := outer;
        Bytes.set state s '\002';
        order := s :: !order
    in
    for s = 0 to n - 1 do
      visit s
    done;
    let topo = Array.of_list (List.rev !order) in
    (* Fanouts: readers of each signal. *)
    let counts = Array.make n 0 in
    let record s = counts.(s) <- counts.(s) + 1 in
    Array.iteri
      (fun _ nd ->
        match nd with
        | Gate (_, fanins) -> Array.iter record fanins
        | Reg { next; _ } -> record next
        | Input | Const _ -> ())
      nodes;
    let fanouts = Array.init n (fun s -> Array.make counts.(s) 0) in
    let fill = Array.make n 0 in
    Array.iteri
      (fun i nd ->
        let record s =
          fanouts.(s).(fill.(s)) <- i;
          fill.(s) <- fill.(s) + 1
        in
        match nd with
        | Gate (_, fanins) -> Array.iter record fanins
        | Reg { next; _ } -> record next
        | Input | Const _ -> ())
      nodes;
    {
      nodes;
      names;
      inputs = Array.of_list (List.rev !inputs);
      registers = Array.of_list (List.rev !registers);
      outputs = List.rev c.outs;
      topo;
      fanouts;
      level;
    }
end

let pp_stats ppf t =
  Format.fprintf ppf "signals=%d gates=%d registers=%d inputs=%d outputs=%d"
    (num_signals t) (num_gates t) (num_registers t) (num_inputs t)
    (List.length t.outputs)
