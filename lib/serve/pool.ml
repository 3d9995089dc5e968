module Bdd = Rfn_bdd.Bdd
module Varmap = Rfn_mc.Varmap
module Session = Rfn_core.Session
module Telemetry = Rfn_obs.Telemetry

let src = Logs.Src.create "serve.pool" ~doc:"warm-session LRU pool"

module Log = (val Logs.src_log src : Logs.LOG)

let c_created = Telemetry.counter "serve.sessions_created"
let c_reused = Telemetry.counter "serve.sessions_reused"
let c_evicted = Telemetry.counter "serve.sessions_evicted"

type entry = {
  digest : string;
  session : Session.t;
  mutable last_used : int;  (* logical clock, higher = more recent *)
}

type t = {
  max_sessions : int;
  max_nodes : int;
  mutable clock : int;
  mutable entries : entry list;
}

let create ?(max_sessions = 4) ?(max_nodes = 8_000_000) () =
  { max_sessions = max 1 max_sessions; max_nodes; clock = 0; entries = [] }

let nodes_of e =
  match Session.varmap e.session with
  | None -> 0
  | Some vm -> Bdd.num_nodes (Varmap.man vm)

(* Dropping the entry releases the session's whole manager — nothing
   needs unprotecting. *)
let evict t e =
  Telemetry.incr c_evicted;
  Log.info (fun m -> m "evicting session %s (%d nodes)" e.digest (nodes_of e));
  t.entries <- List.filter (fun e' -> e' != e) t.entries

let lru t = function
  | [] -> ()
  | e0 :: rest ->
    let oldest =
      List.fold_left
        (fun a e -> if e.last_used < a.last_used then e else a)
        e0 rest
    in
    evict t oldest

let touch t e =
  t.clock <- t.clock + 1;
  e.last_used <- t.clock

let acquire t ~digest ~create:make =
  match List.find_opt (fun e -> e.digest = digest) t.entries with
  | Some e ->
    Telemetry.incr c_reused;
    touch t e;
    (e.session, true)
  | None ->
    Telemetry.incr c_created;
    let e = { digest; session = make (); last_used = 0 } in
    touch t e;
    t.entries <- e :: t.entries;
    while List.length t.entries > t.max_sessions do
      (* the fresh entry is the most recent, so it is never the LRU *)
      lru t (List.filter (fun e' -> e' != e) t.entries)
    done;
    (e.session, false)

let trim t =
  let total () = List.fold_left (fun acc e -> acc + nodes_of e) 0 t.entries in
  let evictable () =
    match t.entries with
    | [] | [ _ ] -> []
    | first :: rest ->
      let mru =
        List.fold_left
          (fun a e -> if e.last_used > a.last_used then e else a)
          first rest
      in
      List.filter (fun e -> e != mru) t.entries
  in
  let rec go () =
    if total () > t.max_nodes then
      match evictable () with
      | [] -> ()
      | candidates ->
        lru t candidates;
        go ()
  in
  go ()

let drop t ~digest =
  match List.find_opt (fun e -> e.digest = digest) t.entries with
  | None -> ()
  | Some e -> evict t e

let length t = List.length t.entries

let digests t =
  List.sort (fun a b -> compare b.last_used a.last_used) t.entries
  |> List.map (fun e -> e.digest)
