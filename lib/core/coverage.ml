open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Reach = Rfn_mc.Reach
module Sim3v = Rfn_sim3v.Sim3v
module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

type status = Unknown | Unreachable | Reachable

type report = {
  total : int;
  unreachable : int;
  reachable : int;
  unknown : int;
  abstract_regs : int;
  iterations : int;
  seconds : float;
  status : status array;
  failure : F.t option;
}

let check_coverage circuit coverage =
  if coverage = [] then invalid_arg "Coverage: empty coverage set";
  if List.length coverage > 24 then
    invalid_arg "Coverage: more than 24 coverage signals";
  List.iter
    (fun s ->
      if not (Circuit.is_reg circuit s) then
        invalid_arg "Coverage: coverage signals must be registers")
    coverage

(* The coverage-state sets of one analysis, as BDDs in a side manager
   of its own whose variable i is coverage bit i, so they outlive every
   session manager. The two sets are disjoint; the unreachable states
   are the rest. *)
type sets = {
  side : Bdd.man;
  bits : int;
  mutable unknown : Bdd.t;
  mutable reachable : Bdd.t;
}

let sets_for coverage =
  let bits = List.length coverage in
  let side = Bdd.create ~nvars:bits () in
  { side; bits; unknown = Bdd.one side; reachable = Bdd.zero side }

(* The unknown states over [vm]'s current-state variables: the target
   of the abstract fixpoint and of trace extraction. *)
let unknown_in vm ~coverage sets =
  let vars = Array.of_list (List.map (Varmap.cur_var vm) coverage) in
  Bdd.rebuild ~src:sets.side ~dst:(Varmap.man vm) ~map:(Array.get vars)
    sets.unknown

(* Unknown states outside the projection of [reached] onto the
   coverage signals become unreachable: quantify the other registers
   out, map each coverage variable to its bit, intersect. Only sound
   when [reached] is a complete fixpoint, which over-approximates the
   reachable coverage states. *)
let mark_unreachable vm ~coverage sets reached =
  let man = Varmap.man vm in
  let vars = List.map (Varmap.cur_var vm) coverage in
  let others =
    List.filter (fun v -> not (List.mem v vars)) (Varmap.cur_vars vm)
  in
  let bit = Array.make (Bdd.nvars man) (-1) in
  List.iteri (fun i v -> bit.(v) <- i) vars;
  let proj =
    Bdd.rebuild ~src:man ~dst:sets.side ~map:(Array.get bit)
      (Bdd.exists man others reached)
  in
  sets.unknown <- Bdd.dand sets.side sets.unknown proj

(* Concrete replay of a found trace, marking every unknown coverage
   state the design visits along the way as reachable. True when it
   marked any. *)
let mark_reachable circuit ~coverage sets trace =
  let side = sets.side in
  Array.fold_left
    (fun marked vec ->
      let value s = Sim3v.Packed.read_lane vec s ~lane:0 in
      if List.exists (fun s -> value s = Sim3v.VX) coverage then marked
      else
        let cube =
          Bdd.cube side
            (List.mapi (fun i s -> (i, value s = Sim3v.V1)) coverage)
        in
        let unknown = Bdd.diff side sets.unknown cube in
        if Bdd.equal unknown sets.unknown then marked
        else begin
          sets.unknown <- unknown;
          sets.reachable <- Bdd.dor side sets.reachable cube;
          true
        end)
    false (Sim3v.replay circuit trace)

let count sets f = int_of_float (Bdd.count_minterms sets.side ~over:sets.bits f)

(* The per-code status array, by one descent over both sets that
   cofactors on bit i at depth i; a subtree in neither set keeps the
   array's default, [Unreachable]. *)
let status_of sets =
  let side = sets.side in
  let status = Array.make (1 lsl sets.bits) Unreachable in
  let split i f =
    if Bdd.is_terminal f || Bdd.topvar side f <> i then (f, f)
    else (Bdd.low side f, Bdd.high side f)
  in
  let rec fill i code u r =
    if Bdd.is_zero u && Bdd.is_zero r then ()
    else if i = sets.bits then
      status.(code) <- (if Bdd.is_one u then Unknown else Reachable)
    else begin
      let u0, u1 = split i u and r0, r1 = split i r in
      fill (i + 1) code u0 r0;
      fill (i + 1) (code lor (1 lsl i)) u1 r1
    end
  in
  fill 0 0 sets.unknown sets.reachable;
  status

let report_of ?failure sets ~abstract_regs ~iterations ~seconds () =
  let total = 1 lsl sets.bits in
  let unknown = count sets sets.unknown
  and reachable = count sets sets.reachable in
  {
    total;
    unreachable = total - unknown - reachable;
    reachable;
    unknown;
    abstract_regs;
    iterations;
    seconds;
    status = status_of sets;
    failure;
  }

(* The fixpoint runs to closure: the projection of the complete
   reachable set is what identifies unreachable coverage states (paper,
   Section 3). A budget that runs out is no failure. *)
let rfn_analysis ?(config = Rfn.default_config) circuit ~coverage =
  check_coverage circuit coverage;
  let sets = sets_for coverage in
  let goal =
    {
      Rfn.bad = None;
      target =
        (fun vm ~fn:_ ->
          let unknown = unknown_in vm ~coverage sets in
          (unknown, unknown));
      settle =
        Some (fun vm reached -> mark_unreachable vm ~coverage sets reached);
      reached =
        (fun t ->
          if mark_reachable circuit ~coverage sets t then `Again else `Refine);
      settled = (fun () -> Bdd.is_zero sets.unknown);
    }
  in
  let outcome, stats =
    Rfn.pursue ~config (Rfn.prepare ~config circuit ~roots:coverage) goal
  in
  let failure =
    match outcome with
    | Rfn.Aborted { F.resource = F.Iterations | F.Time; _ }
    | Rfn.Proved | Rfn.Falsified _ ->
      None
    | Rfn.Aborted f -> Some f
  in
  report_of ?failure sets ~abstract_regs:stats.Rfn.final_abstract_regs
    ~iterations:(List.length stats.Rfn.provenance)
    ~seconds:stats.Rfn.seconds ()

(* Registers at BFS distance <= d from the coverage signals through the
   register-dependency graph (r depends on the registers in the
   combinational support of its next-state input). *)
let closest_registers circuit ~coverage ~k =
  let supports = Hashtbl.create 997 in
  let reg_support r =
    match Hashtbl.find_opt supports r with
    | Some l -> l
    | None ->
      let next =
        match Circuit.node circuit r with
        | Circuit.Reg { next; _ } -> next
        | _ -> invalid_arg "Coverage.closest_registers: not a register"
      in
      (* One combinational step only: registers read directly by the
         cone of [next], i.e. registers whose output the backward walk
         reaches before crossing any register. *)
      let seen = Bitset.create (Circuit.num_signals circuit) in
      let acc = ref [] in
      let rec walk s =
        if not (Bitset.mem seen s) then begin
          Bitset.add seen s;
          match Circuit.node circuit s with
          | Circuit.Reg _ -> acc := s :: !acc
          | Circuit.Gate (_, fanins) -> Array.iter walk fanins
          | Circuit.Input | Circuit.Const _ -> ()
        end
      in
      walk next;
      let l = !acc in
      Hashtbl.replace supports r l;
      l
  in
  let chosen = Hashtbl.create 97 in
  let order = ref [] in
  let q = Queue.create () in
  List.iter
    (fun s ->
      Hashtbl.replace chosen s ();
      order := s :: !order;
      Queue.add s q)
    coverage;
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty q) do
    let r = Queue.pop q in
    List.iter
      (fun dep ->
        if Hashtbl.length chosen < k && not (Hashtbl.mem chosen dep) then begin
          Hashtbl.replace chosen dep ();
          order := dep :: !order;
          Queue.add dep q
        end)
      (reg_support r);
    if Hashtbl.length chosen >= k then continue_ := false
  done;
  List.rev !order

let bfs_analysis ?(k = 60) ?(node_limit = 2_000_000) ?(max_steps = 2_000)
    ?max_seconds circuit ~coverage =
  check_coverage circuit coverage;
  let started = Telemetry.now () in
  let sets = sets_for coverage in
  let regs = closest_registers circuit ~coverage ~k in
  let abstraction = Abstraction.with_regs circuit ~roots:coverage ~regs in
  let abstract_regs = Abstraction.num_regs abstraction in
  let bfs_failure resource =
    F.make ~iteration:1 ~engine:F.Bdd_mc ~phase:F.Abstract_mc resource
  in
  let failure =
    match
      let vm = Varmap.make ~node_limit abstraction.Abstraction.view in
      let img = Image.make vm in
      let init = Symbolic.initial_states vm in
      let res =
        Reach.run ~max_steps ?max_seconds img ~vm ~init
          ~bad_states:(Bdd.zero (Varmap.man vm))
      in
      (vm, res)
    with
    | exception Bdd.Limit_exceeded ->
      (* the fixpoint blew the node budget: no conclusion about any
         coverage state — surfaced, not swallowed *)
      Some (bfs_failure F.Nodes)
    | vm, res -> (
      match res.Reach.outcome with
      | Reach.Proved ->
        mark_unreachable vm ~coverage sets res.Reach.reached;
        None
      | Reach.Aborted r ->
        (* partial reach (step or time budget): the projection argument
           needs the complete reachable set, so nothing can be marked *)
        Some (bfs_failure r)
      | Reach.Closed _ | Reach.Reached _ ->
        (* not produced with an empty target and stop_at_bad's default *)
        Some
          (bfs_failure
             (F.Invariant "reachability touched an empty target set")))
  in
  report_of ?failure sets ~abstract_regs ~iterations:1
    ~seconds:(Telemetry.now () -. started) ()
