module Circuit = Rfn_circuit.Circuit
module Property = Rfn_circuit.Property
module Gate = Rfn_circuit.Gate
module Coi = Rfn_circuit.Coi
module Sview = Rfn_circuit.Sview
module Bitset = Rfn_circuit.Bitset
module Opt = Rfn_circuit.Opt
module Sim3v = Rfn_sim3v.Sim3v
module Cnf = Rfn_sat.Cnf
module Solver = Rfn_sat.Solver
module Analysis = Rfn_analysis.Analysis
module Json = Rfn_obs.Json
module Telemetry = Rfn_obs.Telemetry

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type finding = {
  pass : string;
  severity : severity;
  signals : int list;
  message : string;
}

let finding ~pass ~severity ?(signals = []) message =
  { pass; severity; signals; message }

type report = { findings : finding list; passes_run : string list }

(* What a pass inspects. The two expensive analyses are computed on
   first use and shared by every pass of one run, so a run performs at
   most one of each, and a selection that needs neither skips both. *)
type ctx = {
  circuit : Circuit.t;
  props : Property.t list;
  analysis : Analysis.t Lazy.t;
      (* proven invariants, quick budget: equiv-reg, onehot-violation *)
  constants : Sim3v.v array Lazy.t;
      (* [Opt.constant_registers] values: const-reg, prop-const *)
}

type pass = { name : string; run : ctx -> finding list }

(* ---- helpers --------------------------------------------------------- *)

(* Cap rendered name lists so a pathological design does not produce a
   pathological diagnostic. *)
let name_list ?(cap = 8) c signals =
  let n = List.length signals in
  let shown =
    List.filteri (fun i _ -> i < cap) signals |> List.map (Circuit.name c)
  in
  let body = String.concat ", " shown in
  if n > cap then Printf.sprintf "%s, ... (%d more)" body (n - cap) else body

let declared_output c s = List.exists (fun (_, x) -> x = s) c.Circuit.outputs
let prop_root props s = List.exists (fun p -> p.Property.bad = s) props

let v_to_string = function
  | Sim3v.V0 -> "0"
  | Sim3v.V1 -> "1"
  | Sim3v.VX -> "X"

(* ---- design passes --------------------------------------------------- *)

let pass_const_reg =
  {
    name = "const-reg";
    run =
      (fun { circuit = c; constants; _ } ->
        let values = Lazy.force constants in
        Array.to_list c.Circuit.registers
        |> List.filter_map (fun r ->
               match Circuit.node c r with
               | Circuit.Reg { init; next } -> (
                 match values.(next) with
                 | Sim3v.VX -> None
                 | v ->
                   let init_s =
                     match init with
                     | `Zero -> "0"
                     | `One -> "1"
                     | `Free -> "free"
                   in
                   Some
                     (finding ~pass:"const-reg" ~severity:Warning ~signals:[ r ]
                        (Printf.sprintf
                           "register %S next-state is constant %s (init %s)"
                           (Circuit.name c r) (v_to_string v) init_s)))
               | _ -> None));
  }

let pass_self_loop_reg =
  {
    name = "self-loop-reg";
    run =
      (fun { circuit = c; _ } ->
        Array.to_list c.Circuit.registers
        |> List.filter_map (fun r ->
               match Circuit.node c r with
               | Circuit.Reg { next; _ } when next = r ->
                 Some
                   (finding ~pass:"self-loop-reg" ~severity:Warning
                      ~signals:[ r ]
                      (Printf.sprintf
                         "register %S next-state is its own output (it holds \
                          its initial value forever)"
                         (Circuit.name c r)))
               | _ -> None));
  }

let pass_dead_input =
  {
    name = "dead-input";
    run =
      (fun { circuit = c; _ } ->
        Array.to_list c.Circuit.inputs
        |> List.filter_map (fun i ->
               if Array.length c.Circuit.fanouts.(i) = 0 && not (declared_output c i)
               then
                 Some
                   (finding ~pass:"dead-input" ~severity:Warning ~signals:[ i ]
                      (Printf.sprintf "primary input %S drives no logic"
                         (Circuit.name c i)))
               else None));
  }

let pass_floating_gate =
  {
    name = "floating-gate";
    run =
      (fun { circuit = c; props; _ } ->
        let acc = ref [] in
        for s = Circuit.num_signals c - 1 downto 0 do
          match Circuit.node c s with
          | Circuit.Gate _
            when Array.length c.Circuit.fanouts.(s) = 0
                 && (not (declared_output c s))
                 && not (prop_root props s) ->
            acc :=
              finding ~pass:"floating-gate" ~severity:Warning ~signals:[ s ]
                (Printf.sprintf "gate %S output is never read"
                   (Circuit.name c s))
              :: !acc
          | _ -> ()
        done;
        !acc);
  }

let pass_unreachable =
  {
    name = "unreachable-logic";
    run =
      (fun { circuit = c; props; _ } ->
        let roots =
          List.map snd c.Circuit.outputs
          @ List.concat_map Property.roots props
        in
        if roots = [] then []
        else begin
          let coi = Coi.compute c ~roots in
          let dead = ref [] in
          for s = Circuit.num_signals c - 1 downto 0 do
            let reachable =
              Bitset.mem coi.Coi.regs s || Bitset.mem coi.Coi.gates s
              || Bitset.mem coi.Coi.inputs s
              || List.mem s roots
              || match Circuit.node c s with Circuit.Const _ -> true | _ -> false
            in
            if not reachable then dead := s :: !dead
          done;
          match !dead with
          | [] -> []
          | dead ->
            [
              finding ~pass:"unreachable-logic" ~severity:Info ~signals:dead
                (Printf.sprintf
                   "%d signal(s) outside every output/property cone: %s"
                   (List.length dead) (name_list c dead));
            ]
        end);
  }

let pass_duplicate_gate =
  {
    name = "duplicate-gate";
    run =
      (fun { circuit = c; _ } ->
        let groups : (string, int list) Hashtbl.t = Hashtbl.create 97 in
        for s = 0 to Circuit.num_signals c - 1 do
          match Circuit.node c s with
          | Circuit.Gate (kind, fanins) ->
            let key =
              Gate.to_string kind ^ ":"
              ^ String.concat ","
                  (Array.to_list (Array.map string_of_int fanins))
            in
            let prev = Option.value (Hashtbl.find_opt groups key) ~default:[] in
            Hashtbl.replace groups key (s :: prev)
          | _ -> ()
        done;
        Hashtbl.fold
          (fun _ signals acc ->
            match signals with
            | _ :: _ :: _ ->
              let signals = List.rev signals in
              finding ~pass:"duplicate-gate" ~severity:Info ~signals
                (Printf.sprintf "%d structurally identical gates: %s"
                   (List.length signals) (name_list c signals))
              :: acc
            | _ -> acc)
          groups []
        |> List.sort (fun a b -> compare a.signals b.signals));
  }

(* ---- invariant-backed passes ----------------------------------------- *)

(* Both passes below consume Rfn_analysis invariants, which are
   inductively *proved* before they are reported — no finding here
   rests on a simulation guess. The quick configuration keeps the
   mining/proving budget at lint latencies. *)

let is_reg c s =
  match Circuit.node c s with Circuit.Reg _ -> true | _ -> false

let pass_equiv_reg =
  {
    name = "equiv-reg";
    run =
      (fun { circuit = c; analysis; _ } ->
        if Array.length c.Circuit.registers = 0 then []
        else
          let a = Lazy.force analysis in
          List.filter_map
            (fun inv ->
              match inv with
              | Analysis.Equiv { keep; drop; phase } when is_reg c drop ->
                Some
                  (finding ~pass:"equiv-reg" ~severity:Warning
                     ~signals:[ drop; keep ]
                     (Printf.sprintf
                        "register %S is redundant: in every reachable state \
                         it equals %s%S"
                        (Circuit.name c drop)
                        (if phase then "the complement of " else "")
                        (Circuit.name c keep)))
              | _ -> None)
            a.Analysis.invariants);
  }

let pass_onehot_violation =
  {
    name = "onehot-violation";
    run =
      (fun { circuit = c; props; analysis; _ } ->
        if props = [] || Array.length c.Circuit.registers = 0 then []
        else begin
          let a = Lazy.force analysis in
          let groups =
            List.filter
              (function
                | Analysis.Mutex _ | Analysis.One_hot _ -> true
                | _ -> false)
              a.Analysis.invariants
          in
          if groups = [] then []
          else begin
            (* One free-init frame: frame 0 ranges over arbitrary
               states, so adding the proven group clauses restricts it
               to the proven encoding — an over-approximation of the
               reachable states. Unsat for a bad signal that was
               satisfiable without the clauses means the property can
               only fire by violating the encoding, which no reachable
               state does: the check is vacuous. *)
            let view =
              Sview.whole c ~roots:(List.map (fun p -> p.Property.bad) props)
            in
            let unr = Cnf.create ~free_init:true view in
            Cnf.extend unr ~frames:1;
            let solver = Cnf.solver unr in
            let limits = Analysis.quick_config.Analysis.limits in
            let solve_bad p =
              Solver.solve ~limits
                ~assumptions:[ Cnf.lit_of unr ~frame:0 p.Property.bad ]
                solver
            in
            (* Constant-0 bad signals are prop-const findings, not ours:
               only keep the properties that can fire at all. *)
            let fireable =
              List.filter (fun p -> solve_bad p = Solver.Sat) props
            in
            List.iter
              (fun g ->
                List.iter
                  (fun cls ->
                    let lits =
                      List.filter_map
                        (fun (s, v) ->
                          Option.map
                            (fun l -> if v then l else Solver.neg l)
                            (Cnf.lit_of_opt unr ~frame:0 s))
                        cls
                    in
                    if List.compare_lengths lits cls = 0 then
                      Solver.add_clause solver lits)
                  (Analysis.clauses_of g))
              groups;
            List.filter_map
              (fun p ->
                match solve_bad p with
                | Solver.Unsat ->
                  Some
                    (finding ~pass:"onehot-violation" ~severity:Error
                       ~signals:
                         (p.Property.bad
                         :: List.concat_map Analysis.signals_of groups)
                       (Printf.sprintf
                          "property %S can only fire by violating a proven \
                           register-group invariant (%s): no reachable state \
                           triggers it"
                          p.Property.name
                          (String.concat "; "
                             (List.map (Analysis.describe c) groups))))
                | Solver.Sat | Solver.Unknown _ -> None)
              fireable
          end
        end);
  }

(* ---- property passes ------------------------------------------------- *)

let pass_prop_const =
  {
    name = "prop-const";
    run =
      (fun { circuit = c; props; constants; _ } ->
        if props = [] then []
        else begin
          let values = Lazy.force constants in
          List.filter_map
            (fun p ->
              let bad = p.Property.bad in
              match values.(bad) with
              | Sim3v.VX -> None
              | Sim3v.V1 ->
                Some
                  (finding ~pass:"prop-const" ~severity:Error ~signals:[ bad ]
                     (Printf.sprintf
                        "property %S is structurally false: bad signal %S is \
                         stuck at 1"
                        p.Property.name (Circuit.name c bad)))
              | Sim3v.V0 ->
                Some
                  (finding ~pass:"prop-const" ~severity:Warning
                     ~signals:[ bad ]
                     (Printf.sprintf
                        "property %S is vacuously true: bad signal %S is \
                         stuck at 0"
                        p.Property.name (Circuit.name c bad))))
            props
        end);
  }

let pass_prop_free_init =
  {
    name = "prop-free-init";
    run =
      (fun { circuit = c; props; _ } ->
        List.filter_map
          (fun p ->
            let coi = Coi.compute c ~roots:(Property.roots p) in
            let free =
              Bitset.fold
                (fun r acc ->
                  match Circuit.node c r with
                  | Circuit.Reg { init = `Free; _ } -> r :: acc
                  | _ -> acc)
                coi.Coi.regs []
              |> List.rev
            in
            match free with
            | [] -> None
            | free ->
              Some
                (finding ~pass:"prop-free-init" ~severity:Warning ~signals:free
                   (Printf.sprintf
                      "property %S cone contains %d register(s) with a free \
                       initial value: %s"
                      p.Property.name (List.length free) (name_list c free))))
          props);
  }

let passes =
  [
    pass_const_reg;
    pass_self_loop_reg;
    pass_dead_input;
    pass_floating_gate;
    pass_unreachable;
    pass_duplicate_gate;
    pass_equiv_reg;
    pass_onehot_violation;
    pass_prop_const;
    pass_prop_free_init;
  ]

(* ---- driver ---------------------------------------------------------- *)

let count sev r =
  List.length (List.filter (fun f -> f.severity = sev) r.findings)

let errors = count Error
let warnings = count Warning
let infos = count Info

let c_passes_run = Telemetry.counter "lint.passes_run"
let c_findings = Telemetry.counter "lint.findings"
let c_errors = Telemetry.counter "lint.errors"
let c_warnings = Telemetry.counter "lint.warnings"
let c_info = Telemetry.counter "lint.info"

let run ?only ?(props = []) circuit =
  let selected =
    match only with
    | None -> passes
    | Some names ->
      List.iter
        (fun n ->
          if not (List.exists (fun p -> p.name = n) passes) then
            invalid_arg (Printf.sprintf "Lint.run: unknown pass %S" n))
        names;
      List.filter (fun p -> List.mem p.name names) passes
  in
  let ctx =
    {
      circuit;
      props;
      analysis = lazy (Analysis.run ~config:Analysis.quick_config circuit);
      constants = lazy (snd (Opt.constant_registers circuit));
    }
  in
  let findings = List.concat_map (fun p -> p.run ctx) selected in
  let findings =
    List.stable_sort
      (fun a b ->
        match compare (severity_rank a.severity) (severity_rank b.severity) with
        | 0 -> compare a.pass b.pass
        | c -> c)
      findings
  in
  let report = { findings; passes_run = List.map (fun p -> p.name) selected } in
  Telemetry.add c_passes_run (List.length selected);
  Telemetry.add c_findings (List.length findings);
  Telemetry.add c_errors (errors report);
  Telemetry.add c_warnings (warnings report);
  Telemetry.add c_info (infos report);
  report

(* ---- rendering ------------------------------------------------------- *)

let pp_report ppf r =
  List.iter
    (fun f ->
      Format.fprintf ppf "%s: [%s] %s@."
        (severity_to_string f.severity)
        f.pass f.message)
    r.findings;
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s) from %d pass(es)@."
    (errors r) (warnings r) (infos r)
    (List.length r.passes_run)

let report_to_json c r =
  Json.Obj
    [
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("pass", Json.Str f.pass);
                   ("severity", Json.Str (severity_to_string f.severity));
                   ( "signals",
                     Json.List
                       (List.map
                          (fun s -> Json.Str (Circuit.name c s))
                          f.signals) );
                   ("message", Json.Str f.message);
                 ])
             r.findings) );
      ("errors", Json.Int (errors r));
      ("warnings", Json.Int (warnings r));
      ("infos", Json.Int (infos r));
      ("passes_run", Json.List (List.map (fun p -> Json.Str p) r.passes_run));
    ]
