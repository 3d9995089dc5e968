module Json = Rfn_obs.Json
module Proc = Rfn_proc.Proc
module Codec = Rfn_proc.Codec
module Sim3v = Rfn_sim3v.Sim3v
module F = Rfn_failure

(* ---- resource wire format ---------------------------------------------- *)

(* [Invariant] carries a message the tag alone cannot round-trip, so
   the payload carries the detail alongside the tag. *)
let resource_fields r =
  [ ("resource", Json.Str (F.resource_tag r)) ]
  @ match r with F.Invariant msg -> [ ("detail", Json.Str msg) ] | _ -> []

let resource_of_payload j =
  match Option.bind (Json.member "resource" j) Json.to_str with
  | Some "invariant" ->
    let msg =
      match Option.bind (Json.member "detail" j) Json.to_str with
      | Some m -> m
      | None -> "worker-reported invariant"
    in
    Some (F.Invariant msg)
  | Some tag -> F.resource_of_tag tag
  | None -> None

(* ---- Concretize.outcome over the wire ---------------------------------- *)

let concretize_to_payload = function
  | Concretize.Found t ->
    Json.Obj
      [ ("outcome", Json.Str "found"); ("trace", Codec.trace_to_json t) ]
  | Concretize.Not_found_here -> Json.Obj [ ("outcome", Json.Str "not-found") ]
  | Concretize.Gave_up r ->
    Json.Obj (("outcome", Json.Str "gave-up") :: resource_fields r)

let concretize_of_payload j =
  match Option.bind (Json.member "outcome" j) Json.to_str with
  | Some "found" ->
    Option.map
      (fun t -> Concretize.Found t)
      (Option.bind (Json.member "trace" j) Codec.trace_of_json)
  | Some "not-found" -> Some Concretize.Not_found_here
  | Some "gave-up" ->
    Option.map (fun r -> Concretize.Gave_up r) (resource_of_payload j)
  | Some _ | None -> None

(* Workers are not trusted: a Found trace must replay to the bad
   signal on the parent's own copy of the design before it wins. *)
let classify_concretize circuit ~bad payload =
  match concretize_of_payload payload with
  | None -> Proc.Reject "undecodable concretize outcome"
  | Some (Concretize.Found t) ->
    if Sim3v.replay_concrete circuit t ~bad then Proc.Win
    else Proc.Reject "counterexample failed concrete replay"
  | Some Concretize.Not_found_here -> Proc.Win
  | Some (Concretize.Gave_up _) -> Proc.Hold

(* ---- Bmc.outcome over the wire ----------------------------------------- *)

let bmc_to_payload = function
  | Bmc.Found t ->
    Json.Obj
      [ ("outcome", Json.Str "found"); ("trace", Codec.trace_to_json t) ]
  | Bmc.Exhausted -> Json.Obj [ ("outcome", Json.Str "exhausted") ]
  | Bmc.Gave_up depth ->
    Json.Obj [ ("outcome", Json.Str "gave-up"); ("depth", Json.Int depth) ]

let bmc_of_payload j =
  match Option.bind (Json.member "outcome" j) Json.to_str with
  | Some "found" ->
    Option.map
      (fun t -> Bmc.Found t)
      (Option.bind (Json.member "trace" j) Codec.trace_of_json)
  | Some "exhausted" -> Some Bmc.Exhausted
  | Some "gave-up" ->
    Some
      (Bmc.Gave_up
         (match Option.bind (Json.member "depth" j) Json.to_int with
         | Some d -> d
         | None -> 0))
  | Some _ | None -> None

let classify_bmc circuit ~bad payload =
  match bmc_of_payload payload with
  | None -> Proc.Reject "undecodable falsify outcome"
  | Some (Bmc.Found t) ->
    if Sim3v.replay_concrete circuit t ~bad then Proc.Win
    else Proc.Reject "counterexample failed concrete replay"
  | Some Bmc.Exhausted -> Proc.Win
  | Some (Bmc.Gave_up _) -> Proc.Hold

(* ---- the races ---------------------------------------------------------- *)

let first_failure_resource = function
  | { Proc.resource; _ } :: _ -> resource
  | [] -> F.Worker_crashed

let settle ~decode = function
  | Proc.Winner (_, payload) | Proc.Held (_, payload) -> (
    match decode payload with
    | Some outcome -> Ok outcome
    | None ->
      (* cannot happen: classify already decoded this payload — but a
         structured failure beats an assert if it somehow does *)
      Error F.Worker_garbage)
  | Proc.All_failed failures -> Error (first_failure_resource failures)

let race ~to_payload ~decode ~classify ?deadline ~policy entrants =
  settle ~decode
    (Proc.race ?deadline ~policy ~classify
       (List.map
          (fun (name, run) ->
            { Proc.name; run = (fun () -> to_payload (run ())) })
          entrants))

let concretize ?deadline ~policy circuit ~bad entrants =
  race ~to_payload:concretize_to_payload ~decode:concretize_of_payload
    ~classify:(classify_concretize circuit ~bad) ?deadline ~policy entrants

let falsify ?deadline ~policy circuit ~bad entrants =
  race ~to_payload:bmc_to_payload ~decode:bmc_of_payload
    ~classify:(classify_bmc circuit ~bad) ?deadline ~policy entrants
