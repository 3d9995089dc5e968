open Rfn_circuit
module Telemetry = Rfn_obs.Telemetry

let c_frames = Telemetry.counter "sat.frames_encoded"
let c_frames_reused = Telemetry.counter "sat.frames_reused"

type t = {
  solver : Solver.t;
  view : Sview.t;
  net : Vnet.t;
  free_init : bool;
  tt : Solver.lit;  (* the constant-true literal *)
  mutable maps : int array array;  (* maps.(frame).(local id) = lit *)
  mutable nframes : int;
}

let create ?log_learnts ?(free_init = false) view =
  let solver = Solver.create ?log_learnts () in
  let tt = Solver.lit (Solver.new_var solver) true in
  Solver.add_clause solver [ tt ];
  let net = Sview.net view in
  { solver; view; net; free_init; tt; maps = [||]; nframes = 0 }

let solver t = t.solver
let view t = t.view
let frames t = t.nframes

(* ---- Tseitin gate encodings ------------------------------------------ *)

let fresh t = Solver.lit (Solver.new_var t.solver) true

(* [g <-> /\ lits], collapsing trivial arities. *)
let and_lits t lits =
  match lits with
  | [] -> t.tt
  | [ l ] -> l
  | lits ->
    let g = fresh t in
    List.iter (fun l -> Solver.add_clause t.solver [ Solver.neg g; l ]) lits;
    Solver.add_clause t.solver (g :: List.map Solver.neg lits);
    g

let or_lits t lits = Solver.neg (and_lits t (List.map Solver.neg lits))

(* [g <-> a xor b]. *)
let xor2 t a b =
  let g = fresh t in
  let s = t.solver in
  let n = Solver.neg in
  Solver.add_clause s [ n g; a; b ];
  Solver.add_clause s [ n g; n a; n b ];
  Solver.add_clause s [ g; n a; b ];
  Solver.add_clause s [ g; a; n b ];
  g

let xor_lits t lits =
  match lits with
  | [] -> Solver.neg t.tt
  | l :: rest -> List.fold_left (xor2 t) l rest

(* [g <-> if sel then a else b] (the Mux fanin order is
   [| sel; else; then |], as in [Gate.eval]). *)
let mux t sel b a =
  let g = fresh t in
  let s = t.solver in
  let n = Solver.neg in
  Solver.add_clause s [ n sel; n a; g ];
  Solver.add_clause s [ n sel; a; n g ];
  Solver.add_clause s [ sel; n b; g ];
  Solver.add_clause s [ sel; b; n g ];
  g

let gate_lit t kind args =
  match (kind : Gate.kind) with
  | Gate.Not -> Solver.neg args.(0)
  | Gate.Buf -> args.(0)
  | Gate.And -> and_lits t (Array.to_list args)
  | Gate.Nand -> Solver.neg (and_lits t (Array.to_list args))
  | Gate.Or -> or_lits t (Array.to_list args)
  | Gate.Nor -> Solver.neg (or_lits t (Array.to_list args))
  | Gate.Xor -> xor_lits t (Array.to_list args)
  | Gate.Xnor -> Solver.neg (xor_lits t (Array.to_list args))
  | Gate.Mux -> mux t args.(0) args.(1) args.(2)

(* ---- frame encoding --------------------------------------------------- *)

let encode_frame t frame =
  let net = t.net in
  let map = Array.make net.Vnet.size (-1) in
  for s = 0 to net.Vnet.size - 1 do
    map.(s) <-
      (match net.Vnet.node.(s) with
      | Vnet.Free -> fresh t
      | Vnet.Const b -> if b then t.tt else Solver.neg t.tt
      | Vnet.Reg init ->
        if frame = 0 then begin
          let v = fresh t in
          (if not t.free_init then
             match init with
             | `Zero -> Solver.add_clause t.solver [ Solver.neg v ]
             | `One -> Solver.add_clause t.solver [ v ]
             | `Free -> ());
          v
        end
        else
          (* the register output at frame [t] is the next-state input
             at frame [t - 1], verbatim *)
          t.maps.(frame - 1).(Vnet.fanin net s 0)
      | Vnet.Gate kind ->
        gate_lit t kind
          (Array.init (Vnet.arity net s) (fun i -> map.(Vnet.fanin net s i))))
  done;
  map

let extend t ~frames =
  if frames > t.nframes then begin
    Telemetry.add c_frames_reused t.nframes;
    let maps = Array.make frames [||] in
    Array.blit t.maps 0 maps 0 t.nframes;
    t.maps <- maps;
    for f = t.nframes to frames - 1 do
      t.maps.(f) <- encode_frame t f;
      Telemetry.incr c_frames
    done;
    t.nframes <- frames
  end
  else Telemetry.add c_frames_reused frames

let lit_of t ~frame s =
  if frame < 0 || frame >= t.nframes then
    invalid_arg
      (Printf.sprintf "Rfn_sat.Cnf.lit_of: frame %d not encoded (have %d)"
         frame t.nframes);
  match Vnet.local t.net s with
  | -1 ->
    invalid_arg
      (Printf.sprintf "Rfn_sat.Cnf.lit_of: signal %d (%s) outside the view" s
         (Circuit.name t.view.Sview.circuit s))
  | l -> t.maps.(frame).(l)

let lit_of_opt t ~frame s =
  if frame < 0 || frame >= t.nframes then None
  else
    match Vnet.local t.net s with
    | -1 -> None
    | l -> Some t.maps.(frame).(l)

let assumptions_of_pins t pins =
  List.map
    (fun (frame, s, v) ->
      let l = lit_of t ~frame s in
      if v then l else Solver.neg l)
    pins

let trace t ~frames =
  let net = t.net in
  let cube locals frame =
    Cube.of_list
      (Array.to_list
         (Array.map
            (fun l ->
              ( net.Vnet.parent.(l),
                Solver.value_lit t.solver t.maps.(frame).(l) ))
            locals))
  in
  let states = Array.init frames (fun j -> cube net.Vnet.regs j) in
  let inputs = Array.init frames (fun j -> cube net.Vnet.free_inputs j) in
  Trace.make ~states ~inputs
