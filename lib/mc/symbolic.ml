open Rfn_circuit
module Bdd = Rfn_bdd.Bdd

(* Balanced reduction: a linear fold over a wide gate (a 2,000-input
   parity, say) allocates quadratically many intermediate nodes, and
   the manager has no garbage collector; divide-and-conquer keeps the
   intermediates near n·log n. *)
let reduce man op neutral args =
  let rec go lo hi =
    if hi - lo = 0 then neutral
    else if hi - lo = 1 then args.(lo)
    else
      let mid = (lo + hi) / 2 in
      op man (go lo mid) (go mid hi)
  in
  go 0 (Array.length args)

let gate_bdd man kind args =
  match kind with
  | Gate.Not -> Bdd.dnot man args.(0)
  | Gate.Buf -> args.(0)
  | Gate.And -> reduce man Bdd.dand (Bdd.one man) args
  | Gate.Nand -> Bdd.dnot man (reduce man Bdd.dand (Bdd.one man) args)
  | Gate.Or -> reduce man Bdd.dor (Bdd.zero man) args
  | Gate.Nor -> Bdd.dnot man (reduce man Bdd.dor (Bdd.zero man) args)
  | Gate.Xor -> reduce man Bdd.dxor (Bdd.zero man) args
  | Gate.Xnor -> Bdd.dnot man (reduce man Bdd.dxor (Bdd.zero man) args)
  | Gate.Mux -> Bdd.ite man args.(0) args.(2) args.(1)

let compile_view vm view ~memo =
  let man = Varmap.man vm in
  let net = Sview.net view in
  let compiled = ref 0 in
  for l = 0 to net.Vnet.size - 1 do
    let s = net.Vnet.parent.(l) in
    if not (Hashtbl.mem memo s) then begin
      let f =
        match net.Vnet.node.(l) with
        | Vnet.Free -> Bdd.var man (Varmap.inp_var vm s)
        | Vnet.Const b -> if b then Bdd.one man else Bdd.zero man
        | Vnet.Reg _ -> Bdd.var man (Varmap.cur_var vm s)
        | Vnet.Gate kind ->
          (* fanins precede their reader, so they are in [memo] *)
          gate_bdd man kind
            (Array.init (Vnet.arity net l) (fun i ->
                 Hashtbl.find memo net.Vnet.parent.(Vnet.fanin net l i)))
      in
      incr compiled;
      Hashtbl.replace memo s (Bdd.protect man f)
    end
  done;
  !compiled

let functions_for vm view =
  let memo : (int, Bdd.t) Hashtbl.t = Hashtbl.create 997 in
  let built = ref false in
  fun s ->
    if not (Sview.mem view s) then
      invalid_arg "Symbolic.functions: signal outside the view";
    if not !built then begin
      ignore (compile_view vm view ~memo);
      built := true
    end;
    match Hashtbl.find_opt memo s with
    | Some f -> f
    | None ->
      invalid_arg
        (Printf.sprintf
           "Symbolic.functions: signal %d (%s) was not compiled" s
           (Circuit.name view.Sview.circuit s))

let functions vm = functions_for vm (Varmap.view vm)

let initial_states vm =
  let view = Varmap.view vm in
  let man = Varmap.man vm in
  Array.fold_left
    (fun acc r ->
      match Circuit.node view.Sview.circuit r with
      | Circuit.Reg { init = `Zero; _ } ->
        Bdd.dand man acc (Bdd.nvar man (Varmap.cur_var vm r))
      | Circuit.Reg { init = `One; _ } ->
        Bdd.dand man acc (Bdd.var man (Varmap.cur_var vm r))
      | Circuit.Reg { init = `Free; _ } -> acc
      | _ -> assert false)
    (Bdd.one man) view.Sview.regs

let state_cube vm cube =
  let man = Varmap.man vm in
  Bdd.cube man
    (List.map
       (fun (s, b) ->
         match Varmap.cur_var_opt vm s with
         | Some v -> (v, b)
         | None ->
           invalid_arg
             (Printf.sprintf
                "Symbolic.state_cube: signal %d (%s) is not a register of \
                 the view"
                s
                (Circuit.name (Varmap.view vm).Sview.circuit s)))
       (Cube.to_list cube))
