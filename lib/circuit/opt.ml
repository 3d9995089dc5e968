module B = Circuit.Builder

type report = {
  gates_before : int;
  gates_after : int;
  registers_before : int;
  registers_after : int;
  constants_folded : int;
}

(* Registers provably stuck at their initial value: start from every
   register with a concrete initial value and iteratively drop any
   whose next-state function, evaluated with candidates at their
   initial values and everything else unknown, is not that same value.
   (Ternary evaluation makes this a sound greatest fixpoint.) The
   values of the last sweep are every signal's value at the fixpoint. *)
let constant_registers c =
  let n = Circuit.num_signals c in
  let candidate = Bitset.create n in
  Array.iter
    (fun r ->
      match Circuit.node c r with
      | Circuit.Reg { init = `Zero | `One; _ } -> Bitset.add candidate r
      | _ -> ())
    c.Circuit.registers;
  let init_value r =
    if Circuit.initial_state c ~free:(fun _ -> false) r then Gate.V1
    else Gate.V0
  in
  let changed = ref true in
  let values = Array.make n Gate.VX in
  while !changed do
    changed := false;
    Array.iter
      (fun s ->
        values.(s) <-
          (match Circuit.node c s with
          | Circuit.Input -> Gate.VX
          | Circuit.Const b -> if b then Gate.V1 else Gate.V0
          | Circuit.Reg _ ->
            if Bitset.mem candidate s then init_value s else Gate.VX
          | Circuit.Gate (kind, fanins) ->
            Gate.eval3 kind (fun x -> values.(x)) fanins))
      c.Circuit.topo;
    Bitset.iter
      (fun r ->
        match Circuit.node c r with
        | Circuit.Reg { next; _ } ->
          if values.(next) <> init_value r then begin
            Bitset.remove candidate r;
            changed := true
          end
        | _ -> ())
      candidate
  done;
  (candidate, values)

(* Observable signals: the cones of the declared outputs, crossing
   registers. A design without outputs keeps everything. *)
let observable c =
  match c.Circuit.outputs with
  | [] ->
    let n = Circuit.num_signals c in
    let all = Bitset.create n in
    for s = 0 to n - 1 do
      Bitset.add all s
    done;
    all
  | outs ->
    let coi = Coi.compute c ~roots:(List.map snd outs) in
    let set = Bitset.create (Circuit.num_signals c) in
    Bitset.union_into set coi.Coi.regs;
    Bitset.union_into set coi.Coi.gates;
    Bitset.union_into set coi.Coi.inputs;
    List.iter (fun (_, s) -> Bitset.add set s) outs;
    (* the COI tracks cells with fanins; constants ride along *)
    Array.iteri
      (fun s node ->
        match node with Circuit.Const _ -> Bitset.add set s | _ -> ())
      c.Circuit.nodes;
    set

let simplify c =
  let stuck, _ = constant_registers c in
  let keep = observable c in
  let b = B.create () in
  (* old signal -> simplified signal in the new builder *)
  let map = Array.make (Circuit.num_signals c) (-1) in
  let folded = ref 0 in
  (* registers first, so feedback can resolve *)
  Array.iter
    (fun r ->
      if Bitset.mem keep r then
        match Circuit.node c r with
        | Circuit.Reg { init; _ } ->
          if Bitset.mem stuck r then begin
            incr folded;
            map.(r) <- B.const b (Circuit.initial_state c ~free:(fun _ -> false) r)
          end
          else map.(r) <- B.reg b ~init (Circuit.name c r)
        | _ -> ())
    c.Circuit.registers;
  let resolve s = map.(s) in
  let const_of s =
    match Circuit.node c s with
    | Circuit.Const v -> Some v
    | _ -> (
      (* a signal folded to a builder constant *)
      match map.(s) with
      | -1 -> None
      | ns -> if ns = B.const b false then Some false
              else if ns = B.const b true then Some true
              else None)
  in
  let simplify_gate kind fanins =
    let vals = Array.map const_of fanins in
    let consts = Array.of_list (List.filter_map Fun.id (Array.to_list vals)) in
    if Array.length consts = Array.length fanins then begin
      incr folded;
      B.const b
        (Gate.eval kind (Array.get consts)
           (Array.init (Array.length consts) Fun.id))
    end
    else
      let arg i = resolve fanins.(i) in
      match kind with
      | Gate.Buf -> arg 0
      | Gate.Not -> B.not_ b (arg 0)
      | Gate.And | Gate.Nand -> (
        let dead = Array.exists (fun v -> v = Some false) vals in
        let live =
          if dead then []
          else
            Array.to_list fanins
            |> List.filteri (fun i _ -> vals.(i) <> Some true)
            |> List.map resolve
            |> List.sort_uniq compare
        in
        match (kind, dead, live) with
        | Gate.And, true, _ -> B.const b false
        | Gate.And, false, l -> B.and_l b l
        | _, true, _ -> B.const b true
        | _, false, [] -> B.const b false
        | _, false, [ x ] -> B.not_ b x
        | _, false, l -> B.gate b Gate.Nand (Array.of_list l))
      | Gate.Or | Gate.Nor -> (
        let sat = Array.exists (fun v -> v = Some true) vals in
        let live =
          if sat then []
          else
            Array.to_list fanins
            |> List.filteri (fun i _ -> vals.(i) <> Some false)
            |> List.map resolve
            |> List.sort_uniq compare
        in
        match (kind, sat, live) with
        | Gate.Or, true, _ -> B.const b true
        | Gate.Or, false, l -> B.or_l b l
        | _, true, _ -> B.const b false
        | _, false, [] -> B.const b true
        | _, false, [ x ] -> B.not_ b x
        | _, false, l -> B.gate b Gate.Nor (Array.of_list l))
      | Gate.Xor | Gate.Xnor ->
        (* drop constant-0 fanins, track constant-1 parity, cancel
           duplicated signals pairwise *)
        let parity = ref (kind = Gate.Xnor) in
        let counts = Hashtbl.create 8 in
        Array.iteri
          (fun i f ->
            match vals.(i) with
            | Some true -> parity := not !parity
            | Some false -> ()
            | None ->
              let ns = resolve f in
              Hashtbl.replace counts ns
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts ns)))
          fanins;
        let live =
          Hashtbl.fold
            (fun ns k acc -> if k mod 2 = 1 then ns :: acc else acc)
            counts []
          |> List.sort compare
        in
        (match (live, !parity) with
        | [], p -> B.const b p
        | [ x ], false -> x
        | [ x ], true -> B.not_ b x
        | l, false -> B.gate b Gate.Xor (Array.of_list l)
        | l, true -> B.gate b Gate.Xnor (Array.of_list l))
      | Gate.Mux -> (
        match vals.(0) with
        | Some false -> arg 1
        | Some true -> arg 2
        | None ->
          let d0 = arg 1 and d1 = arg 2 in
          if d0 = d1 then d0 else B.mux b (arg 0) d0 d1)
  in
  Array.iter
    (fun s ->
      if Bitset.mem keep s && map.(s) = -1 then
        map.(s) <-
          (match Circuit.node c s with
          | Circuit.Input -> B.input b (Circuit.name c s)
          | Circuit.Const v -> B.const b v
          | Circuit.Gate (kind, fanins) -> simplify_gate kind fanins
          | Circuit.Reg _ -> assert false (* created above *)))
    c.Circuit.topo;
  (* connect surviving registers *)
  Array.iter
    (fun r ->
      if Bitset.mem keep r && not (Bitset.mem stuck r) then
        match Circuit.node c r with
        | Circuit.Reg { next; _ } -> B.connect b map.(r) map.(next)
        | _ -> ())
    c.Circuit.registers;
  List.iter (fun (name, s) -> B.output b name map.(s)) c.Circuit.outputs;
  let c' = B.finalize b in
  let lookup s = if s < 0 || s >= Array.length map || map.(s) = -1 then None else Some map.(s) in
  ( c',
    lookup,
    {
      gates_before = Circuit.num_gates c;
      gates_after = Circuit.num_gates c';
      registers_before = Circuit.num_registers c;
      registers_after = Circuit.num_registers c';
      constants_folded = !folded;
    } )

let merge_equivalences c pairs =
  let n = Circuit.num_signals c in
  let pos = Array.make n 0 in
  Array.iteri (fun i s -> pos.(s) <- i) c.Circuit.topo;
  (* drop -> (keep, phase); chains resolve transitively below *)
  let target = Array.make n (-1) in
  let tphase = Array.make n false in
  let applied = ref 0 in
  List.iter
    (fun (keep, drop, phase) ->
      if
        keep >= 0 && keep < n && drop >= 0 && drop < n && keep <> drop
        && pos.(keep) < pos.(drop)
        && target.(drop) = -1
        &&
        match Circuit.node c drop with
        | Circuit.Input | Circuit.Const _ -> false
        | Circuit.Gate _ | Circuit.Reg _ -> true
      then begin
        target.(drop) <- keep;
        tphase.(drop) <- phase;
        incr applied
      end)
    pairs;
  let rec resolve s phase =
    if target.(s) = -1 then (s, phase)
    else resolve target.(s) (phase <> tphase.(s))
  in
  let b = B.create () in
  let map = Array.make n (-1) in
  (* surviving registers first, so feedback can resolve *)
  Array.iter
    (fun r ->
      if target.(r) = -1 then
        match Circuit.node c r with
        | Circuit.Reg { init; _ } -> map.(r) <- B.reg b ~init (Circuit.name c r)
        | _ -> ())
    c.Circuit.registers;
  Array.iter
    (fun s ->
      if map.(s) = -1 then
        if target.(s) <> -1 then begin
          let keep, phase = resolve s false in
          map.(s) <- (if phase then B.not_ b map.(keep) else map.(keep))
        end
        else
          map.(s) <-
            (match Circuit.node c s with
            | Circuit.Input -> B.input b (Circuit.name c s)
            | Circuit.Const v -> B.const b v
            | Circuit.Gate (kind, fanins) ->
              B.gate b kind (Array.map (fun f -> map.(f)) fanins)
            | Circuit.Reg _ -> assert false (* created above *)))
    c.Circuit.topo;
  Array.iter
    (fun r ->
      if target.(r) = -1 then
        match Circuit.node c r with
        | Circuit.Reg { next; _ } -> B.connect b map.(r) map.(next)
        | _ -> ())
    c.Circuit.registers;
  List.iter (fun (name, s) -> B.output b name map.(s)) c.Circuit.outputs;
  let c' = B.finalize b in
  let lookup s =
    if s < 0 || s >= n || map.(s) = -1 || target.(s) <> -1 then None
    else Some map.(s)
  in
  (c', lookup, !applied)
