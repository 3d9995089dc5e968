type engine = Bdd_mc | Hybrid | Seq_atpg | Bmc | Sat | Cegar

type phase =
  | Abstract_mc
  | Trace_extraction
  | Concretization
  | Refinement
  | Loop

type resource =
  | Nodes
  | Steps
  | Time
  | Backtracks
  | Conflicts
  | Cube_tries
  | Iterations
  | No_refinement
  | Injected
  | Invariant of string

type t = {
  engine : engine;
  phase : phase;
  resource : resource;
  iteration : int;
  retries : int;
}

let make ?(iteration = 0) ?(retries = 0) ~engine ~phase resource =
  { engine; phase; resource; iteration; retries }

let retryable_resource = function
  | Nodes | Backtracks | Conflicts | Cube_tries | No_refinement | Injected
  | Invariant _ ->
    true
  | Time | Steps | Iterations -> false

let engine_to_string = function
  | Bdd_mc -> "BDD fixpoint engine"
  | Hybrid -> "hybrid engine"
  | Seq_atpg -> "sequential ATPG engine"
  | Bmc -> "BMC engine"
  | Sat -> "SAT engine"
  | Cegar -> "CEGAR driver"

let phase_to_string = function
  | Abstract_mc -> "abstract model checking"
  | Trace_extraction -> "trace extraction"
  | Concretization -> "concretization"
  | Refinement -> "refinement"
  | Loop -> "the refinement loop"

let resource_to_string = function
  | Nodes -> "BDD node limit"
  | Steps -> "fixpoint step limit"
  | Time -> "time limit"
  | Backtracks -> "backtrack limit"
  | Conflicts -> "conflict limit"
  | Cube_tries -> "cube-extension limit"
  | Iterations -> "iteration limit"
  | No_refinement -> "no crucial registers to add"
  | Injected -> "injected fault"
  | Invariant msg -> "internal: " ^ msg

let to_string f =
  let extras =
    (if f.iteration > 0 then [ Printf.sprintf "iteration %d" f.iteration ]
     else [])
    @
    if f.retries > 0 then
      [ Printf.sprintf "%d recovery attempt%s" f.retries
          (if f.retries = 1 then "" else "s") ]
    else []
  in
  Printf.sprintf "%s in %s (%s)"
    (resource_to_string f.resource)
    (phase_to_string f.phase)
    (String.concat ", " (engine_to_string f.engine :: extras))

let pp_resource ppf r = Format.pp_print_string ppf (resource_to_string r)

(* Short machine-friendly tags for telemetry attributes (stable names,
   no spaces — dashboards key on them). *)
let engine_tag = function
  | Bdd_mc -> "bdd_mc"
  | Hybrid -> "hybrid"
  | Seq_atpg -> "seq_atpg"
  | Bmc -> "bmc"
  | Sat -> "sat"
  | Cegar -> "cegar"

let phase_tag = function
  | Abstract_mc -> "abstract_mc"
  | Trace_extraction -> "trace_extraction"
  | Concretization -> "concretization"
  | Refinement -> "refinement"
  | Loop -> "loop"

let resource_tag = function
  | Nodes -> "nodes"
  | Steps -> "steps"
  | Time -> "time"
  | Backtracks -> "backtracks"
  | Conflicts -> "conflicts"
  | Cube_tries -> "cube_tries"
  | Iterations -> "iterations"
  | No_refinement -> "no_refinement"
  | Injected -> "injected"
  | Invariant _ -> "invariant"

let to_attrs f =
  let open Rfn_obs.Json in
  [
    ("engine", Str (engine_tag f.engine));
    ("phase", Str (phase_tag f.phase));
    ("resource", Str (resource_tag f.resource));
    ("iteration", Int f.iteration);
    ("retries", Int f.retries);
  ]
