module Json = Rfn_obs.Json
module Provenance = Rfn_obs.Provenance

type t = {
  version : int;
  netlist_hash : string;
  property : string;
  job_id : string;
      (* server job identifier; "" for stand-alone runs. Part of the
         checkpoint key: two queued jobs on the same (design, property)
         must not adopt each other's loop state. *)
  iteration : int;
  seconds_used : float;
  escalation : int;
  regs : string list;
  provenance : Provenance.t list;
}

let current_version = 1

let hash_circuit circuit =
  Digest.to_hex (Digest.string (Rfn_circuit.Bench_io.to_string circuit))

let make ?(job_id = "") ~netlist_hash ~property ~iteration ~seconds_used
    ~escalation ~regs ~provenance () =
  {
    version = current_version;
    netlist_hash;
    property;
    job_id;
    iteration;
    seconds_used;
    escalation;
    regs;
    provenance;
  }

let to_json t =
  Json.Obj
    [
      ("version", Json.Int t.version);
      ("netlist_hash", Json.Str t.netlist_hash);
      ("property", Json.Str t.property);
      ("job_id", Json.Str t.job_id);
      ("iteration", Json.Int t.iteration);
      ("seconds_used", Json.Float t.seconds_used);
      ("escalation", Json.Int t.escalation);
      ("regs", Json.List (List.map (fun r -> Json.Str r) t.regs));
      ("provenance", Json.List (List.map Provenance.to_json t.provenance));
    ]

let save file t =
  (* temp in the same directory so the rename is same-filesystem and
     therefore atomic: a crash mid-save leaves the old file intact *)
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  let ok =
    match
      Json.to_channel oc (to_json t);
      output_char oc '\n';
      close_out oc
    with
    | () -> true
    | exception Sys_error _ ->
      close_out_noerr oc;
      false
  in
  if ok then Sys.rename tmp file
  else begin
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Sys_error (Printf.sprintf "checkpoint: cannot write %s" file))
  end

let of_json j =
  let ( let* ) = Result.bind in
  let missing name = Error (Printf.sprintf "missing or ill-typed %S" name) in
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some n -> Ok n
    | None -> missing name
  in
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> missing name
  in
  let flt name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some f -> Ok f
    | None -> missing name
  in
  let* version = int "version" in
  if version <> current_version then
    Error
      (Printf.sprintf "unsupported checkpoint version %d (expected %d)"
         version current_version)
  else
    let* netlist_hash = str "netlist_hash" in
    let* property = str "property" in
    (* absent in pre-serve checkpoints of the same version: those were
       all stand-alone runs, whose job id is "" by definition *)
    let job_id =
      match Option.bind (Json.member "job_id" j) Json.to_str with
      | Some s -> s
      | None -> ""
    in
    let* iteration = int "iteration" in
    let* seconds_used = flt "seconds_used" in
    let* escalation = int "escalation" in
    let* regs =
      match Json.member "regs" j with
      | Some (Json.List xs) ->
        let names = List.filter_map Json.to_str xs in
        if List.length names = List.length xs then Ok names
        else missing "regs"
      | Some _ | None -> missing "regs"
    in
    let* provenance =
      match Json.member "provenance" j with
      | Some (Json.List xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* p = Provenance.of_json x in
            Ok (p :: acc))
          (Ok []) xs
        |> Result.map List.rev
      | Some _ | None -> missing "provenance"
    in
    Ok
      {
        version;
        netlist_hash;
        property;
        job_id;
        iteration;
        seconds_used;
        escalation;
        regs;
        provenance;
      }

let load file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic -> (
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in_noerr ic;
    match Json.of_string contents with
    | exception Failure msg -> Error ("malformed checkpoint JSON: " ^ msg)
    | j -> of_json j)

let validate ?(job_id = "") t ~netlist_hash ~property =
  if t.netlist_hash <> netlist_hash then
    Error
      (Printf.sprintf
         "checkpoint was written for a different netlist (hash %s, design \
          hashes %s)"
         t.netlist_hash netlist_hash)
  else if t.property <> property then
    Error
      (Printf.sprintf "checkpoint was written for property %S, not %S"
         t.property property)
  else if t.job_id <> job_id then
    Error
      (Printf.sprintf "checkpoint belongs to job %S, not %S" t.job_id job_id)
  else Ok ()

(* ---- one run's checkpoint file --------------------------------------- *)

type run = {
  file : string;
  job_id : string;
  property : string;
  circuit : Rfn_circuit.Circuit.t;
  hash : string;
}

let for_run ?(job_id = "") file circuit ~property =
  { file; job_id; property; circuit; hash = hash_circuit circuit }

let resume r =
  let ( let* ) = Result.bind in
  if not (Sys.file_exists r.file) then Ok None
  else
    let* ck = load r.file in
    let* () =
      validate ck ~job_id:r.job_id ~netlist_hash:r.hash ~property:r.property
    in
    match List.map (Rfn_circuit.Circuit.find r.circuit) ck.regs with
    | exception Not_found ->
      Error "a checkpointed register is not in this design"
    | regs -> Ok (Some (ck, regs))

let persist r ~iteration ~seconds_used ~escalation ~regs ~provenance =
  let regs = List.map (Rfn_circuit.Circuit.name r.circuit) regs in
  match
    save r.file
      (make ~job_id:r.job_id ~netlist_hash:r.hash ~property:r.property
         ~iteration ~seconds_used ~escalation ~regs ~provenance ())
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let retire r =
  if Sys.file_exists r.file then try Sys.remove r.file with Sys_error _ -> ()
