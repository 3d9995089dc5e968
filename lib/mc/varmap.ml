open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Force = Rfn_bdd.Force

type role = Cur of int | Nxt of int | Inp of int

type t = {
  man : Bdd.man;
  view : Sview.t;
  cur : (int, int) Hashtbl.t;
  nxt : (int, int) Hashtbl.t;
  inp : (int, int) Hashtbl.t;
  roles : (int, role) Hashtbl.t;
  initial_inp : int list;
}

(* FORCE order over the view's signals (its local ids): one hyperedge
   per gate (the gate with its fanins) and one per register (the
   register with its next-state input), then keep only the
   variable-bearing signals. *)
let ordered_var_signals ?rank_of view =
  let net = Sview.net view in
  let count = net.Vnet.size and sig_of = net.Vnet.parent in
  let edges = ref [] in
  for l = 0 to count - 1 do
    match net.Vnet.node.(l) with
    | Vnet.Gate _ | Vnet.Reg _ ->
      edges := (l :: List.init (Vnet.arity net l) (Vnet.fanin net l)) :: !edges
    | Vnet.Free | Vnet.Const _ -> ()
  done;
  (* Seed FORCE with a previous iteration's order when provided:
     previously-placed signals keep their relative order up front, new
     signals follow in index order. *)
  let init =
    match rank_of with
    | None -> None
    | Some rank ->
      let vertices = Array.init count (fun i -> i) in
      let key i =
        match rank sig_of.(i) with
        | Some r -> (0, r, i)
        | None -> (1, i, i)
      in
      Array.sort (fun a b -> compare (key a) (key b)) vertices;
      let pos = Array.make count 0 in
      Array.iteri (fun level v -> pos.(v) <- level) vertices;
      Some pos
  in
  let pos = Force.order ?init ~nvars:count ~edges:!edges () in
  Array.to_list net.Vnet.regs @ Array.to_list net.Vnet.free_inputs
  |> List.sort (fun a b -> compare pos.(a) pos.(b))
  |> List.map (fun l -> sig_of.(l))

let signal_rank t s =
  match Hashtbl.find_opt t.cur s with
  | Some v -> Some v
  | None -> Hashtbl.find_opt t.inp s

let make ?(node_limit = max_int) ?previous view =
  let rank_of =
    Option.map (fun prev s -> signal_rank prev s) previous
  in
  let signals = ordered_var_signals ?rank_of view in
  let nvars =
    List.fold_left
      (fun acc s -> acc + if Circuit.is_reg view.Sview.circuit s
                             && not (Sview.is_free view s) then 2 else 1)
      0 signals
  in
  let man = Bdd.create ~node_limit ~nvars () in
  let cur = Hashtbl.create 97
  and nxt = Hashtbl.create 97
  and inp = Hashtbl.create 97
  and roles = Hashtbl.create 197 in
  let level = ref 0 in
  let initial_inp = ref [] in
  List.iter
    (fun s ->
      if Circuit.is_reg view.Sview.circuit s && not (Sview.is_free view s)
      then begin
        Hashtbl.replace cur s !level;
        Hashtbl.replace roles !level (Cur s);
        Hashtbl.replace nxt s (!level + 1);
        Hashtbl.replace roles (!level + 1) (Nxt s);
        level := !level + 2
      end
      else begin
        Hashtbl.replace inp s !level;
        Hashtbl.replace roles !level (Inp s);
        initial_inp := !level :: !initial_inp;
        incr level
      end)
    signals;
  { man; view; cur; nxt; inp; roles; initial_inp = List.rev !initial_inp }

(* In-place growth for a refinement delta: carried signals keep their
   variables (a promoted pseudo-input's [Inp] variable is re-rolled as
   its [Cur] variable — the reason downstream cone BDDs survive
   growth), new variables are appended at the bottom of the order. *)
let grow t ~view (d : Abstraction.delta) =
  let initial_inp = ref t.initial_inp in
  let drop_inp s =
    match Hashtbl.find_opt t.inp s with
    | None -> None
    | Some v ->
      Hashtbl.remove t.inp s;
      initial_inp := List.filter (fun x -> x <> v) !initial_inp;
      Some v
  in
  let add_fresh_reg r =
    (* a stale [Inp] binding (a min-cut cut variable from an earlier
       hybrid extraction) must not shadow the register's state role *)
    (match drop_inp r with
    | Some v -> Hashtbl.remove t.roles v
    | None -> ());
    let v = Bdd.add_vars t.man 2 in
    Hashtbl.replace t.cur r v;
    Hashtbl.replace t.roles v (Cur r);
    Hashtbl.replace t.nxt r (v + 1);
    Hashtbl.replace t.roles (v + 1) (Nxt r)
  in
  List.iter
    (fun p ->
      match drop_inp p with
      | Some v ->
        Hashtbl.replace t.cur p v;
        Hashtbl.replace t.roles v (Cur p);
        let nv = Bdd.add_vars t.man 1 in
        Hashtbl.replace t.nxt p nv;
        Hashtbl.replace t.roles nv (Nxt p)
      | None -> add_fresh_reg p)
    d.Abstraction.promoted;
  List.iter add_fresh_reg d.Abstraction.fresh_regs;
  (* Collect the appended input variables in reverse and splice them in
     with one [List.rev] — appending to [initial_inp] one element at a
     time inside the iteration is quadratic in the input count. *)
  let appended_inp = ref [] in
  List.iter
    (fun s ->
      let v =
        match Hashtbl.find_opt t.inp s with
        | Some v -> v
        | None ->
          let v = Bdd.add_vars t.man 1 in
          Hashtbl.replace t.inp s v;
          Hashtbl.replace t.roles v (Inp s);
          v
      in
      appended_inp := v :: !appended_inp)
    d.Abstraction.new_free_inputs;
  { t with view; initial_inp = !initial_inp @ List.rev !appended_inp }

(* Retarget to a different view of the same circuit (a new property's
   initial abstraction) while preserving every carried signal's
   "value-now" variable: a register of both views keeps its [Cur]/[Nxt]
   pair, a register output that became free re-rolls its [Cur] variable
   as its [Inp] variable (the demotion dual of [grow]'s promotion), a
   free signal that became a register re-rolls its [Inp] variable as
   [Cur] and appends a [Nxt], and signals new to the view get appended
   variables. Free signals compile to their [Inp] variable and register
   outputs to their [Cur] variable, so preserving the index keeps every
   cone BDD over carried signals valid verbatim. Fresh tables are
   built, dropping stale roles (the [Nxt] variable of a demoted
   register, min-cut cut variables, signals that left the view). *)
let rebase t ~view =
  let cur = Hashtbl.create 97
  and nxt = Hashtbl.create 97
  and inp = Hashtbl.create 97
  and roles = Hashtbl.create 197 in
  (* [Cur] before [Inp]: a state register may also carry a stale
     min-cut input alias, but its value-now variable — the one the
     session memo's cones mention — is the current-state one. *)
  let value_now s =
    match Hashtbl.find_opt t.cur s with
    | Some v -> Some v
    | None -> Hashtbl.find_opt t.inp s
  in
  Array.iter
    (fun r ->
      (match value_now r with
      | Some v ->
        Hashtbl.replace cur r v;
        Hashtbl.replace roles v (Cur r)
      | None ->
        let v = Bdd.add_vars t.man 1 in
        Hashtbl.replace cur r v;
        Hashtbl.replace roles v (Cur r));
      match Hashtbl.find_opt t.nxt r with
      | Some v ->
        Hashtbl.replace nxt r v;
        Hashtbl.replace roles v (Nxt r)
      | None ->
        let v = Bdd.add_vars t.man 1 in
        Hashtbl.replace nxt r v;
        Hashtbl.replace roles v (Nxt r))
    view.Sview.regs;
  let inp_vars = ref [] in
  Array.iter
    (fun s ->
      let v =
        match value_now s with
        | Some v -> v
        | None -> Bdd.add_vars t.man 1
      in
      Hashtbl.replace inp s v;
      Hashtbl.replace roles v (Inp s);
      inp_vars := v :: !inp_vars)
    view.Sview.free_inputs;
  { t with view; cur; nxt; inp; roles; initial_inp = List.sort compare !inp_vars }

let replica ?node_limit t =
  let node_limit =
    match node_limit with Some l -> l | None -> Bdd.node_limit t.man
  in
  let man = Bdd.create ~node_limit ~nvars:(Bdd.nvars t.man) () in
  {
    t with
    man;
    cur = Hashtbl.copy t.cur;
    nxt = Hashtbl.copy t.nxt;
    inp = Hashtbl.copy t.inp;
    roles = Hashtbl.copy t.roles;
  }

let remap t ~man ~map =
  let tr tbl =
    let tbl' = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter (fun s v -> Hashtbl.replace tbl' s (map v)) tbl;
    tbl'
  in
  let roles = Hashtbl.create (Hashtbl.length t.roles) in
  Hashtbl.iter (fun v r -> Hashtbl.replace roles (map v) r) t.roles;
  {
    t with
    man;
    cur = tr t.cur;
    nxt = tr t.nxt;
    inp = tr t.inp;
    roles;
    initial_inp = List.map map t.initial_inp;
  }

let man t = t.man
let view t = t.view

(* A miss here is a caller bug (asking for a role the signal does not
   carry), so the error names the accessor, the signal and its role —
   a bare [Not_found] escaping from deep inside the fixpoint engine is
   undebuggable. *)
let find_var what tbl t s =
  match Hashtbl.find_opt tbl s with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Varmap.%s: signal %d (%s) has no such variable" what s
         (Circuit.name t.view.Sview.circuit s))

let cur_var t s = find_var "cur_var" t.cur t s
let nxt_var t s = find_var "nxt_var" t.nxt t s
let inp_var t s = find_var "inp_var" t.inp t s
let cur_var_opt t s = Hashtbl.find_opt t.cur s
let nxt_var_opt t s = Hashtbl.find_opt t.nxt s
let inp_var_opt t s = Hashtbl.find_opt t.inp s
let has_inp_var t s = Hashtbl.mem t.inp s

let role t v =
  match Hashtbl.find_opt t.roles v with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Varmap.role: BDD variable %d has no allocated role" v)

let vars_of tbl = Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let cur_vars t = List.sort compare (vars_of t.cur)
let inp_vars t = t.initial_inp

let add_input_vars t signals =
  let fresh = List.filter (fun s -> not (Hashtbl.mem t.inp s)) signals in
  match fresh with
  | [] -> ()
  | _ ->
    let first = Bdd.add_vars t.man (List.length fresh) in
    List.iteri
      (fun i s ->
        Hashtbl.replace t.inp s (first + i);
        Hashtbl.replace t.roles (first + i) (Inp s))
      fresh

let rename_next_to_cur t f =
  Bdd.rename t.man
    (fun v ->
      match Hashtbl.find_opt t.roles v with
      | Some (Nxt s) -> cur_var t s
      | _ -> v)
    f

let cube_of_bdd_cube t literals =
  List.map
    (fun (v, b) ->
      match role t v with
      | Cur s | Inp s -> (s, b)
      | Nxt _ ->
        invalid_arg "Varmap.cube_of_bdd_cube: next-state variable in cube")
    literals
