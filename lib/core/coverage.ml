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

let state_code ~coverage value =
  List.fold_left
    (fun (code, bit) s -> ((code lor if value s then 1 lsl bit else 0), bit + 1))
    (0, 0) coverage
  |> fst

let check_coverage circuit coverage =
  if coverage = [] then invalid_arg "Coverage: empty coverage set";
  if List.length coverage > 24 then
    invalid_arg "Coverage: more than 24 coverage signals";
  List.iter
    (fun s ->
      if not (Circuit.is_reg circuit s) then
        invalid_arg "Coverage: coverage signals must be registers")
    coverage

(* BDD (over current-state variables) of the coverage states whose
   status satisfies [keep]: one recursive descent per signal, sharing
   through the manager's unique table. *)
let states_bdd vm ~coverage ~status ~keep =
  let man = Varmap.man vm in
  (* Recurse over coverage signals sorted by BDD level so the result is
     built in order. *)
  let by_level =
    List.mapi (fun i s -> (Varmap.cur_var vm s, i)) coverage
    |> List.sort compare
  in
  let rec build code = function
    | [] -> if keep status.(code) then Bdd.one man else Bdd.zero man
    | (v, bit) :: rest ->
      Bdd.ite man (Bdd.var man v)
        (build (code lor (1 lsl bit)) rest)
        (build code rest)
  in
  build 0 by_level

(* Update [status]: minterms of [unknown ∧ ¬proj] become [Unreachable]
   (only called when the fixpoint is complete, i.e. proj is a sound
   over-approximation of the reachable coverage states). *)
let mark_unreachable vm ~coverage ~status proj =
  let man = Varmap.man vm in
  let n = List.length coverage in
  let vars = List.map (fun s -> Varmap.cur_var vm s) coverage in
  for code = 0 to (1 lsl n) - 1 do
    if status.(code) = Unknown then begin
      let assignment =
        let tbl = Hashtbl.create 31 in
        List.iteri
          (fun bit v -> Hashtbl.replace tbl v (code land (1 lsl bit) <> 0))
          vars;
        fun v -> try Hashtbl.find tbl v with Not_found -> false
      in
      if not (Bdd.eval man proj assignment) then status.(code) <- Unreachable
    end
  done

(* Concrete replay of a found trace, marking every coverage state the
   design visits along the way as reachable. *)
let mark_reachable circuit ~coverage ~status trace =
  let frames = Sim3v.replay circuit trace in
  let marked = ref 0 in
  Array.iter
    (fun vec ->
      let value s = Sim3v.Packed.read_lane vec s ~lane:0 in
      let concrete = List.for_all (fun s -> value s <> Sim3v.VX) coverage in
      if concrete then begin
        let code = state_code ~coverage (fun s -> value s = Sim3v.V1) in
        if status.(code) = Unknown then begin
          status.(code) <- Reachable;
          incr marked
        end
      end)
    frames;
  !marked

let count status v = Array.fold_left (fun n s -> if s = v then n + 1 else n) 0 status

let report_of ?failure ~status ~abstract_regs ~iterations ~seconds () =
  {
    total = Array.length status;
    unreachable = count status Unreachable;
    reachable = count status Reachable;
    unknown = count status Unknown;
    abstract_regs;
    iterations;
    seconds;
    status;
    failure;
  }

let rfn_analysis ?(config = Rfn.default_config) circuit ~coverage =
  check_coverage circuit coverage;
  let started = Telemetry.now () in
  let n = List.length coverage in
  let status = Array.make (1 lsl n) Unknown in
  let out_of_time () =
    match config.Rfn.max_seconds with
    | Some budget -> Telemetry.now () -. started > budget
    | None -> false
  in
  (* wall-clock remainder, clamped so Reach.run never sees a negative
     budget *)
  let time_left () =
    match config.Rfn.max_seconds with
    | None -> None
    | Some budget ->
      Some (Float.max 0.0 (budget -. (Telemetry.now () -. started)))
  in
  let session =
    Session.create ~node_limit:config.Rfn.node_limit
      ~policy:config.Rfn.session circuit ~roots:coverage
  in
  let rec iterate iter =
    let abstraction = Session.abstraction session in
    let done_ ?failure last_regs =
      report_of ?failure ~status ~abstract_regs:last_regs ~iterations:iter
        ~seconds:(Telemetry.now () -. started) ()
    in
    let regs_now = Abstraction.num_regs abstraction in
    if
      iter > config.Rfn.max_iterations
      || out_of_time ()
      || count status Unknown = 0
    then done_ regs_now
    else
      match
        let { Session.vm; img; _ } = Session.prepare session in
        let init = Symbolic.initial_states vm in
        let unknown_states =
          states_bdd vm ~coverage ~status ~keep:(fun s -> s = Unknown)
        in
        (* The fixpoint runs to closure even after touching unknown
           states: the projection of the complete reachable set is what
           identifies unreachable coverage states (paper, Section 3). *)
        let res =
          Reach.run ~max_steps:config.Rfn.mc_max_steps ~stop_at_bad:false
            ?max_seconds:(time_left ()) img ~vm ~init
            ~bad_states:unknown_states
        in
        (vm, res, unknown_states)
      with
      | exception Bdd.Limit_exceeded ->
        done_
          ~failure:
            (F.make ~iteration:iter ~engine:F.Bdd_mc ~phase:F.Abstract_mc
               F.Nodes)
          regs_now
      | vm, res, unknown_states -> (
        let project reached =
          Bdd.exists (Varmap.man vm)
            (List.filter
               (fun v ->
                 not (List.exists (fun s -> Varmap.cur_var vm s = v) coverage))
               (Varmap.cur_vars vm))
            reached
        in
        (* Chase one abstract-reachable unknown state: extract an
           abstract error trace at the first ring touching the unknown
           set, concretize it, and either mark the visited coverage
           states reachable or refine the model. *)
        let chase k =
          match
            Hybrid.extract ~atpg_limits:config.Rfn.abstract_atpg vm
              ~rings:res.Reach.rings ~target:unknown_states ~k
          with
          | exception Hybrid.Extraction_failed r ->
            done_
              ~failure:
                (F.make ~iteration:iter ~engine:F.Hybrid
                   ~phase:F.Trace_extraction r)
              regs_now
          | exception Bdd.Limit_exceeded ->
            done_
              ~failure:
                (F.make ~iteration:iter ~engine:F.Hybrid
                   ~phase:F.Trace_extraction F.Nodes)
              regs_now
          | hybrid -> (
            let abstract_trace = hybrid.Hybrid.trace in
            let refine_and_continue () =
              let r =
                Refine.crucial_registers ~atpg_limits:config.Rfn.abstract_atpg
                  abstraction ~abstract_trace ()
              in
              if r.Refine.kept = [] then done_ regs_now
              else begin
                ignore (Session.refine session ~add:r.Refine.kept);
                iterate (iter + 1)
              end
            in
            match
              Concretize.guided_to_trace ~limits:config.Rfn.concrete_atpg
                circuit ~abstract_trace
            with
            | Concretize.Found t, _ ->
              let marked = mark_reachable circuit ~coverage ~status t in
              if marked = 0 then refine_and_continue ()
              else iterate (iter + 1)
            | (Concretize.Not_found_here | Concretize.Gave_up _), _ ->
              refine_and_continue ())
        in
        match res.Reach.outcome with
        | Reach.Proved ->
          (* Closed fixpoint never touching an unknown state: all of
             them are unreachable (the abstraction over-approximates). *)
          Array.iteri
            (fun i s -> if s = Unknown then status.(i) <- Unreachable)
            status;
          done_ regs_now
        | Reach.Closed k ->
          mark_unreachable vm ~coverage ~status (project res.Reach.reached);
          chase k
        | Reach.Reached k -> chase k (* not taken with stop_at_bad:false *)
        | Reach.Aborted _ -> (
          (* Partial reach: no unreachability conclusions, but a ring
             touching the unknown set can still be concretized. *)
          let man = Varmap.man vm in
          let hit = ref None in
          Array.iteri
            (fun i ring ->
              if
                !hit = None
                && not (Bdd.is_zero (Bdd.dand man ring unknown_states))
              then hit := Some i)
            res.Reach.rings;
          match !hit with Some k -> chase k | None -> done_ regs_now))
  in
  iterate 1

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
  let n = List.length coverage in
  let status = Array.make (1 lsl n) Unknown in
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
        let proj =
          Bdd.exists (Varmap.man vm)
            (List.filter
               (fun v ->
                 not (List.exists (fun s -> Varmap.cur_var vm s = v) coverage))
               (Varmap.cur_vars vm))
            res.Reach.reached
        in
        mark_unreachable vm ~coverage ~status proj;
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
  report_of ?failure ~status ~abstract_regs ~iterations:1
    ~seconds:(Telemetry.now () -. started) ()

let closest_registers_for_test = closest_registers
