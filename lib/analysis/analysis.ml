module Circuit = Rfn_circuit.Circuit
module Sview = Rfn_circuit.Sview
module Bitset = Rfn_circuit.Bitset
module Sim3v = Rfn_sim3v.Sim3v
module Solver = Rfn_sat.Solver
module Cnf = Rfn_sat.Cnf
module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Telemetry = Rfn_obs.Telemetry
module Json = Rfn_obs.Json

let c_candidates = Telemetry.counter "analysis.candidates"
let c_proved = Telemetry.counter "analysis.proved"
let c_refuted = Telemetry.counter "analysis.refuted"
let c_unknown = Telemetry.counter "analysis.unknown"
let c_clauses = Telemetry.counter "analysis.clauses_added"
let c_pruned = Telemetry.counter "analysis.pruned_queries"

type invariant =
  | Const_reg of { reg : int; value : bool }
  | Implication of { a : int; a_val : bool; b : int; b_val : bool }
  | Mutex of int array
  | One_hot of int array
  | Equiv of { keep : int; drop : int; phase : bool }

type config = {
  patterns : int;
  cycles : int;
  max_pair_regs : int;
  max_group : int;
  max_equiv : int;
  limits : Solver.limits;
  max_seconds : float option;
  seed : int;
}

let default_config =
  {
    patterns = 4;
    cycles = 24;
    max_pair_regs = 64;
    max_group = 8;
    max_equiv = 128;
    limits = { Solver.max_conflicts = 20_000; max_seconds = None };
    max_seconds = None;
    seed = 0;
  }

let quick_config =
  {
    default_config with
    patterns = 2;
    cycles = 12;
    max_equiv = 64;
    limits = { Solver.max_conflicts = 4_000; max_seconds = None };
  }

type stats = { candidates : int; proved : int; refuted : int; unknown : int }
type t = { invariants : invariant list; stats : stats; seconds : float }

(* ------------------------------------------------------------------ *)
(* Invariant structure                                                 *)
(* ------------------------------------------------------------------ *)

let mutex_clauses rs =
  let cls = ref [] in
  let n = Array.length rs in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      cls := [ (rs.(i), false); (rs.(j), false) ] :: !cls
    done
  done;
  List.rev !cls

let clauses_of = function
  | Const_reg { reg; value } -> [ [ (reg, value) ] ]
  | Implication { a; a_val; b; b_val } -> [ [ (a, not a_val); (b, b_val) ] ]
  | Mutex rs -> mutex_clauses rs
  | One_hot rs ->
    mutex_clauses rs @ [ Array.to_list (Array.map (fun r -> (r, true)) rs) ]
  | Equiv { keep; drop; phase } ->
    (* drop = keep xor phase *)
    [ [ (keep, not phase); (drop, false) ]; [ (keep, phase); (drop, true) ] ]

let signals_of = function
  | Const_reg { reg; _ } -> [ reg ]
  | Implication { a; b; _ } -> if a <= b then [ a; b ] else [ b; a ]
  | Mutex rs | One_hot rs -> Array.to_list rs
  | Equiv { keep; drop; _ } ->
    if keep <= drop then [ keep; drop ] else [ drop; keep ]

let describe c inv =
  let name s = Circuit.name c s in
  match inv with
  | Const_reg { reg; value } ->
    Printf.sprintf "register %S is constant %d" (name reg)
      (if value then 1 else 0)
  | Implication { a; a_val; b; b_val } ->
    Printf.sprintf "%S=%d implies %S=%d" (name a)
      (if a_val then 1 else 0)
      (name b)
      (if b_val then 1 else 0)
  | Mutex rs ->
    Printf.sprintf "mutex {%s}"
      (String.concat ", " (Array.to_list (Array.map name rs)))
  | One_hot rs ->
    Printf.sprintf "one-hot {%s}"
      (String.concat ", " (Array.to_list (Array.map name rs)))
  | Equiv { keep; drop; phase } ->
    Printf.sprintf "%S always equals %s%S" (name drop)
      (if phase then "the complement of " else "")
      (name keep)

let holds t ~state ~values =
  let value inv s =
    match inv with
    | Equiv _ -> values s
    | _ -> state s
  in
  List.for_all
    (fun inv ->
      List.for_all
        (fun clause ->
          List.exists (fun (s, p) -> value inv s = p) clause)
        (clauses_of inv))
    t.invariants

(* ------------------------------------------------------------------ *)
(* Packed random simulation: signatures and register value words       *)
(* ------------------------------------------------------------------ *)

let lane_mask =
  if Sim3v.Packed.lanes >= Sys.int_size then -1
  else (1 lsl Sim3v.Packed.lanes) - 1

(* [patterns * (cycles + 1)] concrete words per signal; all lanes are
   concrete (free-initial registers and inputs take random values), so
   the [unks] plane is identically 0 and signatures read [vones]. *)
let simulate cfg c =
  let st = Random.State.make [| cfg.seed; Circuit.num_signals c |] in
  let random_word () =
    let a = Random.State.bits st in
    let b = Random.State.bits st in
    let c = Random.State.bits st in
    ((a lsl 40) lxor (b lsl 20) lxor c) land lane_mask
  in
  let view = Sview.whole c ~roots:(List.map snd c.Circuit.outputs) in
  let runs =
    Array.init cfg.patterns (fun _ ->
        let init s =
          match Circuit.node c s with
          | Circuit.Reg { init = `Zero; _ } -> Sim3v.Packed.zero
          | Circuit.Reg { init = `One; _ } -> Sim3v.Packed.splat Sim3v.V1
          | _ -> { Sim3v.Packed.ones = random_word (); unks = 0 }
        in
        let inputs ~cycle:_ _ =
          { Sim3v.Packed.ones = random_word (); unks = 0 }
        in
        Sim3v.Packed.run view ~init ~inputs ~cycles:cfg.cycles)
  in
  (* words.(p).(cy).vones.(s) is signal s's 63 lanes in run p, cycle cy *)
  runs

(* ------------------------------------------------------------------ *)
(* Candidate mining                                                    *)
(* ------------------------------------------------------------------ *)

(* Equivalence candidates by simulation signature: signals whose value
   words agree in every lane of every cycle of every run (or disagree
   everywhere: complement). Hash-consed per canonical phase; collisions
   only waste a SAT query. *)
let mine_equivs cfg c (runs : Sim3v.Packed.vec array array) =
  let mix h w = (h * 0x10_0000_01b3) lxor w in
  let sig_of s =
    Array.fold_left
      (fun h run ->
        Array.fold_left (fun h vec -> mix h vec.Sim3v.Packed.vones.(s)) h run)
      0x8112_9732 runs
  and cosig_of s =
    Array.fold_left
      (fun h run ->
        Array.fold_left
          (fun h vec -> mix h (lnot vec.Sim3v.Packed.vones.(s) land lane_mask))
          h run)
      0x8112_9732 runs
  in
  let classes = Hashtbl.create 997 in
  let pairs = ref [] and count = ref 0 in
  Array.iter
    (fun s ->
      match Circuit.node c s with
      | Circuit.Input | Circuit.Const _ -> ()
      | Circuit.Gate _ | Circuit.Reg _ ->
        if !count < cfg.max_equiv then begin
          let h = sig_of s and ch = cosig_of s in
          let key = min h ch and phase_of_key = h > ch in
          match Hashtbl.find_opt classes key with
          | None -> Hashtbl.add classes key (s, phase_of_key)
          | Some (keep, keep_phase) ->
            (* same canonical class: drop = keep xor (phase_keep <> phase_s) *)
            incr count;
            pairs :=
              Equiv { keep; drop = s; phase = keep_phase <> phase_of_key }
              :: !pairs
        end)
    c.Circuit.topo;
  List.rev !pairs

(* Pairwise register domain: which of the four value combinations each
   register pair exhibits under simulation. One missing combination is
   an implication candidate; a never-both-1 graph seeds mutex / one-hot
   groups. *)
let mine_pairs cfg c (runs : Sim3v.Packed.vec array array) ~skip =
  let regs =
    Array.of_list
      (List.filteri
         (fun i _ -> i < cfg.max_pair_regs)
         (List.filter
            (fun r -> not (Bitset.mem skip r))
            (Array.to_list c.Circuit.registers)))
  in
  let n = Array.length regs in
  if n < 2 then []
  else begin
    (* state words of register k, flattened over runs and cycles *)
    let words =
      Array.map
        (fun r ->
          Array.concat
            (Array.to_list
               (Array.map
                  (fun run ->
                    Array.map (fun vec -> vec.Sim3v.Packed.vones.(r)) run)
                  runs)))
        regs
    in
    let seen = Array.make_matrix n n 0 in
    let nwords = Array.length words.(0) in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let m = ref 0 in
        let wi = words.(i) and wj = words.(j) in
        (let k = ref 0 in
         while !m <> 0b1111 && !k < nwords do
           let a = wi.(!k) and b = wj.(!k) in
           if a land b <> 0 then m := !m lor 0b1000;
           if a land (lnot b) land lane_mask <> 0 then m := !m lor 0b0100;
           if lnot a land b land lane_mask <> 0 then m := !m lor 0b0010;
           if lnot a land lnot b land lane_mask <> 0 then m := !m lor 0b0001;
           incr k
         done);
        seen.(i).(j) <- !m
      done
    done;
    (* greedy mutex groups over the never-both-1 graph *)
    let never11 i j = seen.(min i j).(max i j) land 0b1000 = 0 in
    let grouped = Array.make n false in
    let groups = ref [] in
    for i = 0 to n - 1 do
      if not grouped.(i) then begin
        let members = ref [ i ] in
        for j = i + 1 to n - 1 do
          if
            (not grouped.(j))
            && List.length !members < cfg.max_group
            && List.for_all (fun k -> never11 k j) !members
          then members := j :: !members
        done;
        if List.length !members >= 2 then begin
          List.iter (fun k -> grouped.(k) <- true) !members;
          groups := List.rev !members :: !groups
        end
      end
    done;
    let group_invs =
      List.rev_map
        (fun members ->
          let rs = Array.of_list (List.map (fun k -> regs.(k)) members) in
          Array.sort compare rs;
          (* one-hot if additionally some member is 1 in every observed
             state: the all-0 lanes are those clear in every member *)
          let all_zero_somewhere =
            let some = ref false in
            for w = 0 to nwords - 1 do
              let ors =
                List.fold_left (fun acc k -> acc lor words.(k).(w)) 0 members
              in
              if lnot ors land lane_mask <> 0 then some := true
            done;
            !some
          in
          if all_zero_somewhere then Mutex rs else One_hot rs)
        !groups
    in
    (* implication candidates: exactly one combination missing, and the
       pair not already inside a mutex group (its clause would repeat) *)
    let imps = ref [] in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        if not (grouped.(i) && grouped.(j)) then begin
          let a = regs.(i) and b = regs.(j) in
          match seen.(i).(j) with
          | 0b0111 ->
            imps := Implication { a; a_val = true; b; b_val = false } :: !imps
          | 0b1011 ->
            imps := Implication { a; a_val = true; b; b_val = true } :: !imps
          | 0b1101 ->
            imps := Implication { a; a_val = false; b; b_val = false } :: !imps
          | 0b1110 ->
            imps := Implication { a; a_val = false; b; b_val = true } :: !imps
          | _ -> ()
        end
      done
    done;
    group_invs @ List.rev !imps
  end

(* ------------------------------------------------------------------ *)
(* Inductive checking                                                  *)
(* ------------------------------------------------------------------ *)

(* Assumption literals forcing clause [cls] false at [frame]; None when
   some literal is not encoded there (candidate is then dropped). *)
let negate_clause cnf ~frame cls =
  let rec go acc = function
    | [] -> Some acc
    | (s, p) :: rest -> (
      match Cnf.lit_of_opt cnf ~frame s with
      | None -> None
      | Some l -> go ((if p then Solver.neg l else l) :: acc) rest)
  in
  go [] cls

(* Base case: on a one-frame unrolling clamped to the initial states,
   no assignment may falsify any clause of the candidate. *)
let base_holds limits cnf0 inv =
  let solver = Cnf.solver cnf0 in
  let rec check = function
    | [] -> `Proved
    | cls :: rest -> (
      match negate_clause cnf0 ~frame:0 cls with
      | None -> `Refuted
      | Some assumptions -> (
        match Solver.solve ~limits ~assumptions solver with
        | Solver.Unsat -> check rest
        | Solver.Sat -> `Refuted
        | Solver.Unknown _ -> `Unknown))
  in
  check (clauses_of inv)

(* Mutual induction on a two-frame free-initial unrolling: one guard
   literal activates each surviving candidate's clauses at frame 0;
   candidate [i] fails if some model of the guarded hypotheses
   falsifies one of its clauses at frame 1. A counter-model refutes
   every candidate it violates (van Eijk), then the survivors re-check
   until a full pass holds. *)
let induction_step limits cnf2 candidates =
  let solver = Cnf.solver cnf2 in
  let n = Array.length candidates in
  let guards =
    Array.map
      (fun inv ->
        let g = Solver.lit (Solver.new_var solver) true in
        List.iter
          (fun cls ->
            match negate_clause cnf2 ~frame:0 cls with
            | None -> ()
            | Some negs ->
              (* negs are the clause's literals negated: negate back *)
              Solver.add_clause solver
                (Solver.neg g :: List.map Solver.neg negs))
          (clauses_of inv);
        g)
      candidates
  in
  let status = Array.make n `Active in
  let refute_under_model () =
    (* the model falsifies the hypotheses of nothing at frame 0 and
       may falsify several candidates at frame 1: drop them all *)
    Array.iteri
      (fun j inv ->
        if status.(j) = `Active then
          let violated =
            List.exists
              (fun cls ->
                match negate_clause cnf2 ~frame:1 cls with
                | None -> true
                | Some negs ->
                  List.for_all (fun l -> Solver.value_lit solver l) negs)
              (clauses_of inv)
          in
          if violated then status.(j) <- `Refuted)
      candidates
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let assumptions () =
      let acc = ref [] in
      Array.iteri
        (fun j g -> if status.(j) = `Active then acc := g :: !acc)
        guards;
      !acc
    in
    Array.iteri
      (fun j inv ->
        if status.(j) = `Active then
          let rec check = function
            | [] -> ()
            | cls :: rest -> (
              match negate_clause cnf2 ~frame:1 cls with
              | None ->
                status.(j) <- `Refuted;
                changed := true
              | Some negs -> (
                match
                  Solver.solve ~limits
                    ~assumptions:(negs @ assumptions ())
                    solver
                with
                | Solver.Unsat -> check rest
                | Solver.Sat ->
                  status.(j) <- `Refuted;
                  refute_under_model ();
                  changed := true
                | Solver.Unknown _ ->
                  status.(j) <- `Unknown;
                  changed := true))
          in
          check (clauses_of inv))
      candidates
  done;
  status

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) c =
  Telemetry.with_span "analysis.run" (fun () ->
      let started = Telemetry.now () in
      let out_of_time () =
        match config.max_seconds with
        | Some b -> Telemetry.now () -. started > b
        | None -> false
      in
      let const_regs, _ = Rfn_circuit.Opt.constant_registers c in
      let runs = simulate config c in
      let const_candidates =
        List.filter_map
          (fun r ->
            match Circuit.node c r with
            | Circuit.Reg { init = (`Zero | `One) as i; _ } ->
              if Bitset.mem const_regs r then
                Some (Const_reg { reg = r; value = i = `One })
              else begin
                (* simulation-stuck register the ternary fixpoint could
                   not decide: still worth an inductive attempt *)
                let stuck v =
                  Array.for_all
                    (fun run ->
                      Array.for_all
                        (fun vec ->
                          vec.Sim3v.Packed.vones.(r)
                          = (if v then lane_mask else 0))
                        run)
                    runs
                in
                if stuck true then Some (Const_reg { reg = r; value = true })
                else if stuck false then
                  Some (Const_reg { reg = r; value = false })
                else None
              end
            | _ -> None)
          (Array.to_list c.Circuit.registers)
      in
      let const_set = Bitset.create (Circuit.num_signals c) in
      List.iter
        (function
          | Const_reg { reg; _ } -> Bitset.add const_set reg
          | _ -> ())
        const_candidates;
      let pair_candidates = mine_pairs config c runs ~skip:const_set in
      let equiv_candidates =
        List.filter
          (function
            | Equiv { keep; drop; _ } ->
              not (Bitset.mem const_set keep || Bitset.mem const_set drop)
            | _ -> true)
          (mine_equivs config c runs)
      in
      let candidates =
        Array.of_list (const_candidates @ equiv_candidates @ pair_candidates)
      in
      Telemetry.add c_candidates (Array.length candidates);
      let view = Sview.whole c ~roots:(List.map snd c.Circuit.outputs) in
      let refuted = ref 0 and unknown = ref 0 in
      let proven =
        if Array.length candidates = 0 then []
        else begin
          (* base case *)
          let cnf0 = Cnf.create view in
          Cnf.extend cnf0 ~frames:1;
          let base = Array.make (Array.length candidates) `Proved in
          Array.iteri
            (fun i inv ->
              if out_of_time () then base.(i) <- `Unknown
              else base.(i) <- base_holds config.limits cnf0 inv)
            candidates;
          let survivors = ref [] in
          Array.iteri
            (fun i inv ->
              match base.(i) with
              | `Proved -> survivors := inv :: !survivors
              | `Refuted -> incr refuted
              | `Unknown -> incr unknown)
            candidates;
          let survivors = Array.of_list (List.rev !survivors) in
          if Array.length survivors = 0 || out_of_time () then begin
            unknown := !unknown + Array.length survivors;
            []
          end
          else begin
            (* inductive step *)
            let cnf2 = Cnf.create ~free_init:true view in
            Cnf.extend cnf2 ~frames:2;
            let status = induction_step config.limits cnf2 survivors in
            let proven = ref [] in
            Array.iteri
              (fun i inv ->
                match status.(i) with
                | `Active -> proven := inv :: !proven
                | `Refuted -> incr refuted
                | `Unknown -> incr unknown)
              survivors;
            List.rev !proven
          end
        end
      in
      Telemetry.add c_proved (List.length proven);
      Telemetry.add c_refuted !refuted;
      Telemetry.add c_unknown !unknown;
      {
        invariants = proven;
        stats =
          {
            candidates = Array.length candidates;
            proved = List.length proven;
            refuted = !refuted;
            unknown = !unknown;
          };
        seconds = Telemetry.now () -. started;
      })

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)
(* ------------------------------------------------------------------ *)

let constraint_bdd t vm =
  let man = Varmap.man vm in
  let lit_bdd (s, p) =
    match Varmap.cur_var_opt vm s with
    | None -> None
    | Some v -> Some (if p then Bdd.var man v else Bdd.nvar man v)
  in
  List.fold_left
    (fun acc inv ->
      let in_view =
        List.for_all
          (fun s -> Varmap.cur_var_opt vm s <> None)
          (signals_of inv)
      in
      if not in_view then acc
      else
        List.fold_left
          (fun acc cls ->
            let disj =
              List.fold_left
                (fun d l ->
                  match lit_bdd l with
                  | Some b -> Bdd.dor man d b
                  | None -> d)
                (Bdd.zero man) cls
            in
            Bdd.dand man acc disj)
          acc (clauses_of inv))
    (Bdd.one man) t.invariants

let assume_frame t cnf ~frame =
  let solver = Cnf.solver cnf in
  let added = ref 0 in
  List.iter
    (fun inv ->
      List.iter
        (fun cls ->
          let lits =
            List.filter_map
              (fun (s, p) ->
                Option.map
                  (fun l -> if p then l else Solver.neg l)
                  (Cnf.lit_of_opt cnf ~frame s))
              cls
          in
          if List.compare_lengths lits cls = 0 then begin
            Solver.add_clause solver lits;
            incr added
          end)
        (clauses_of inv))
    t.invariants;
  Telemetry.add c_clauses !added;
  !added

let refutes_pins t pins =
  (* group register pins by frame, then ask whether the pinned values
     alone falsify some clause-set of an invariant: every clause of the
     invariant needs at least one literal that is pinned opposite in
     that frame... a single falsified clause suffices (the invariant is
     a conjunction). *)
  let by_frame = Hashtbl.create 7 in
  List.iter
    (fun (f, s, v) ->
      let tbl =
        match Hashtbl.find_opt by_frame f with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 17 in
          Hashtbl.add by_frame f tbl;
          tbl
      in
      Hashtbl.replace tbl s v)
    pins;
  let doomed =
    Hashtbl.fold
      (fun _ tbl acc ->
        acc
        || List.exists
             (fun inv ->
               List.exists
                 (fun cls ->
                   List.for_all
                     (fun (s, p) ->
                       match Hashtbl.find_opt tbl s with
                       | Some v -> v = not p
                       | None -> false)
                     cls)
                 (clauses_of inv))
             t.invariants)
      by_frame false
  in
  if doomed then Telemetry.incr c_pruned;
  doomed

let equiv_pairs t =
  List.filter_map
    (function
      | Equiv { keep; drop; phase } -> Some (keep, drop, phase)
      | _ -> None)
    t.invariants

let to_json t =
  let inv_json inv =
    let kind, fields =
      match inv with
      | Const_reg { reg; value } ->
        ("const-reg", [ ("reg", Json.Int reg); ("value", Json.Bool value) ])
      | Implication { a; a_val; b; b_val } ->
        ( "implication",
          [
            ("a", Json.Int a);
            ("a_val", Json.Bool a_val);
            ("b", Json.Int b);
            ("b_val", Json.Bool b_val);
          ] )
      | Mutex rs ->
        ( "mutex",
          [
            ( "regs",
              Json.List (Array.to_list (Array.map (fun r -> Json.Int r) rs))
            );
          ] )
      | One_hot rs ->
        ( "one-hot",
          [
            ( "regs",
              Json.List (Array.to_list (Array.map (fun r -> Json.Int r) rs))
            );
          ] )
      | Equiv { keep; drop; phase } ->
        ( "equiv",
          [
            ("keep", Json.Int keep);
            ("drop", Json.Int drop);
            ("phase", Json.Bool phase);
          ] )
    in
    Json.Obj (("kind", Json.Str kind) :: fields)
  in
  Json.Obj
    [
      ("candidates", Json.Int t.stats.candidates);
      ("proved", Json.Int t.stats.proved);
      ("refuted", Json.Int t.stats.refuted);
      ("unknown", Json.Int t.stats.unknown);
      ("seconds", Json.Float t.seconds);
      ("invariants", Json.List (List.map inv_json t.invariants));
    ]
