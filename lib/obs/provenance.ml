type t = {
  iter : int;
  regs_before : int;
  regs_after : int;
  model_inputs : int;
  fixpoint_steps : int;
  trace_depth : int option;
  cut_size : int option;
  no_cut_steps : int;
  min_cut_steps : int;
  cubes : int;
  guidance : int;
  engine : string;
  concretize : string;
  promoted : string list;
  candidates : int;
  retries : int;
  fallbacks : int;
  injected : int;
  bdd_nodes : int;
  bdd_peak : int;
  sat_learned : int;
  backtracks : int;
  seconds : float;
  outcome : string;
}

(* ---- serialization --------------------------------------------------- *)

let float_json f = if Float.is_finite f then Json.Float f else Json.Null
let opt_int_json = function None -> Json.Null | Some n -> Json.Int n

let to_fields p =
  [
    ("iter", Json.Int p.iter);
    ("regs_before", Json.Int p.regs_before);
    ("regs_after", Json.Int p.regs_after);
    ("model_inputs", Json.Int p.model_inputs);
    ("fixpoint_steps", Json.Int p.fixpoint_steps);
    ("trace_depth", opt_int_json p.trace_depth);
    ("cut_size", opt_int_json p.cut_size);
    ("no_cut_steps", Json.Int p.no_cut_steps);
    ("min_cut_steps", Json.Int p.min_cut_steps);
    ("cubes", Json.Int p.cubes);
    ("guidance", Json.Int p.guidance);
    ("engine", Json.Str p.engine);
    ("concretize", Json.Str p.concretize);
    ("promoted", Json.List (List.map (fun s -> Json.Str s) p.promoted));
    ("candidates", Json.Int p.candidates);
    ("retries", Json.Int p.retries);
    ("fallbacks", Json.Int p.fallbacks);
    ("injected", Json.Int p.injected);
    ("bdd_nodes", Json.Int p.bdd_nodes);
    ("bdd_peak", Json.Int p.bdd_peak);
    ("sat_learned", Json.Int p.sat_learned);
    ("backtracks", Json.Int p.backtracks);
    ("seconds", float_json p.seconds);
    ("outcome", Json.Str p.outcome);
  ]

let to_json p = Json.Obj (to_fields p)

let of_json j =
  let field name = Json.member name j in
  let missing name = Error (Printf.sprintf "missing or ill-typed %S" name) in
  let int name =
    match Option.bind (field name) Json.to_int with
    | Some n -> Ok n
    | None -> missing name
  in
  (* for fields added after the first release of the record: absent in
     old files and checkpoints, read as 0 *)
  let int_or_zero name =
    match field name with None -> Ok 0 | Some _ -> int name
  in
  let opt_int name =
    match field name with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_int v with Some n -> Ok (Some n) | None -> missing name)
  in
  let str name =
    match Option.bind (field name) Json.to_str with
    | Some s -> Ok s
    | None -> missing name
  in
  let flt name =
    match field name with
    | Some Json.Null -> Ok 0.0 (* the nan/inf policy: null reads as 0 *)
    | Some v -> (
      match Json.to_float v with Some f -> Ok f | None -> missing name)
    | None -> missing name
  in
  let str_list name =
    match field name with
    | Some (Json.List xs) -> (
      let strs = List.filter_map Json.to_str xs in
      if List.length strs = List.length xs then Ok strs else missing name)
    | _ -> missing name
  in
  let ( let* ) = Result.bind in
  let* iter = int "iter" in
  let* regs_before = int "regs_before" in
  let* regs_after = int "regs_after" in
  let* model_inputs = int "model_inputs" in
  let* fixpoint_steps = int "fixpoint_steps" in
  let* trace_depth = opt_int "trace_depth" in
  let* cut_size = opt_int "cut_size" in
  let* no_cut_steps = int_or_zero "no_cut_steps" in
  let* min_cut_steps = int_or_zero "min_cut_steps" in
  let* cubes = int "cubes" in
  let* guidance = int "guidance" in
  let* engine = str "engine" in
  let* concretize = str "concretize" in
  let* promoted = str_list "promoted" in
  let* candidates = int "candidates" in
  let* retries = int "retries" in
  let* fallbacks = int "fallbacks" in
  let* injected = int "injected" in
  let* bdd_nodes = int "bdd_nodes" in
  let* bdd_peak = int "bdd_peak" in
  let* sat_learned = int "sat_learned" in
  let* backtracks = int "backtracks" in
  let* seconds = flt "seconds" in
  let* outcome = str "outcome" in
  Ok
    {
      iter; regs_before; regs_after; model_inputs; fixpoint_steps;
      trace_depth; cut_size; no_cut_steps; min_cut_steps; cubes; guidance;
      engine; concretize; promoted; candidates; retries; fallbacks; injected;
      bdd_nodes; bdd_peak; sat_learned; backtracks; seconds; outcome;
    }

(* ---- narrative ------------------------------------------------------- *)

let pp ppf p =
  Format.fprintf ppf "iteration %d: model %d regs / %d inputs; fixpoint %d \
                      step%s"
    p.iter p.regs_before p.model_inputs p.fixpoint_steps
    (if p.fixpoint_steps = 1 then "" else "s");
  (match p.trace_depth with
  | None -> Format.fprintf ppf "; no abstract trace"
  | Some d ->
    Format.fprintf ppf "; abstract trace depth %d" d;
    (match p.cut_size with
    | Some c -> Format.fprintf ppf " (cut %d, %d cubes)" c p.cubes
    | None -> Format.fprintf ppf " (%d cubes)" p.cubes));
  if p.concretize <> "none" then
    Format.fprintf ppf "; concretize[%s]: %s" p.engine p.concretize;
  (match p.promoted with
  | [] -> ()
  | regs ->
    Format.fprintf ppf "; refined +%d reg%s (%s) of %d candidate%s"
      (List.length regs)
      (if List.length regs = 1 then "" else "s")
      (String.concat ", " regs) p.candidates
      (if p.candidates = 1 then "" else "s"));
  if p.retries > 0 || p.fallbacks > 0 || p.injected > 0 then
    Format.fprintf ppf "; supervisor: %d retr%s, %d fallback%s, %d injected"
      p.retries
      (if p.retries = 1 then "y" else "ies")
      p.fallbacks
      (if p.fallbacks = 1 then "" else "s")
      p.injected;
  Format.fprintf ppf "; bdd %d live / %d peak nodes" p.bdd_nodes p.bdd_peak;
  if p.sat_learned > 0 then
    Format.fprintf ppf "; sat +%d learned" p.sat_learned;
  if p.backtracks > 0 then
    Format.fprintf ppf "; atpg %d backtracks" p.backtracks;
  Format.fprintf ppf "; %.3fs -> %s" p.seconds p.outcome

let pp_story ppf records =
  match records with
  | [] -> Format.fprintf ppf "no provenance records@."
  | first :: rest ->
    List.iter (fun p -> Format.fprintf ppf "%a@." pp p) records;
    let last = List.fold_left (fun _ p -> p) first rest in
    let total = List.fold_left (fun a p -> a +. p.seconds) 0.0 records in
    Format.fprintf ppf "verdict after %d iteration%s (%.3fs): %s@."
      (List.length records)
      (if List.length records = 1 then "" else "s")
      total last.outcome
