module Json = Rfn_obs.Json
module Proc = Rfn_proc.Proc
module Codec = Rfn_proc.Codec
module Sim3v = Rfn_sim3v.Sim3v
module F = Rfn_failure

(* ---- Concretize.outcome over the wire ---------------------------------- *)

(* [Invariant] carries a message the tag alone cannot round-trip, so
   the payload carries the detail alongside the tag. *)
let to_payload = function
  | Concretize.Found t ->
    Json.Obj
      [ ("outcome", Json.Str "found"); ("trace", Codec.trace_to_json t) ]
  | Concretize.Not_found_here -> Json.Obj [ ("outcome", Json.Str "not-found") ]
  | Concretize.Gave_up { resource; frames } ->
    Json.Obj
      ([
         ("outcome", Json.Str "gave-up");
         ("resource", Json.Str (F.resource_tag resource));
         ("frames", Json.Int frames);
       ]
      @
      match resource with
      | F.Invariant msg -> [ ("detail", Json.Str msg) ]
      | _ -> [])

let of_payload j =
  let field name decode = Option.bind (Json.member name j) decode in
  match field "outcome" Json.to_str with
  | Some "found" ->
    Option.map (fun t -> Concretize.Found t) (field "trace" Codec.trace_of_json)
  | Some "not-found" -> Some Concretize.Not_found_here
  | Some "gave-up" -> (
    let resource =
      match field "resource" Json.to_str with
      | Some "invariant" ->
        Some
          (F.Invariant
             (Option.value (field "detail" Json.to_str)
                ~default:"worker-reported invariant"))
      | Some tag -> F.resource_of_tag tag
      | None -> None
    in
    match (resource, field "frames" Json.to_int) with
    | Some resource, Some frames ->
      Some (Concretize.Gave_up { resource; frames })
    | _ -> None)
  | Some _ | None -> None

(* Workers are not trusted: a Found trace must replay to the bad
   signal on the parent's own copy of the design before it wins. *)
let classify circuit ~bad payload =
  match of_payload payload with
  | None -> Proc.Reject "undecodable outcome"
  | Some (Concretize.Found t) ->
    if Sim3v.replay_concrete circuit t ~bad then Proc.Win
    else Proc.Reject "counterexample failed concrete replay"
  | Some Concretize.Not_found_here -> Proc.Win
  | Some (Concretize.Gave_up _) -> Proc.Hold

(* ---- the race ----------------------------------------------------------- *)

let race ?deadline ~policy circuit ~bad entrants =
  match
    Proc.race ?deadline ~policy ~classify:(classify circuit ~bad)
      (List.map
         (fun (name, run) ->
           { Proc.name; run = (fun () -> to_payload (run ())) })
         entrants)
  with
  | Proc.Winner (_, payload) | Proc.Held (_, payload) ->
    (* classify already decoded this payload; a structured failure beats
       an assert if it somehow does not decode again *)
    Option.to_result ~none:F.Worker_garbage (of_payload payload)
  | Proc.All_failed ({ Proc.resource; _ } :: _) -> Error resource
  | Proc.All_failed [] -> Error F.Worker_crashed
