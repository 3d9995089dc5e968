open Rfn_circuit
module Json = Rfn_obs.Json
module Telemetry = Rfn_obs.Telemetry
module Provenance = Rfn_obs.Provenance
module Rfn = Rfn_core.Rfn
module Checkpoint = Rfn_proc.Checkpoint
module Codec = Rfn_proc.Codec
module F = Rfn_failure

let src = Logs.Src.create "serve" ~doc:"RFN verification server"

module Log = (val Logs.src_log src : Logs.LOG)

let c_submitted = Telemetry.counter "serve.jobs_submitted"
let c_completed = Telemetry.counter "serve.jobs_completed"
let c_cancelled = Telemetry.counter "serve.jobs_cancelled"

type limits = { max_sessions : int; max_nodes : int }

let default_limits = { max_sessions = 4; max_nodes = 8_000_000 }

(* ---- line-buffered reads over a raw descriptor ----------------------- *)

(* The loop needs two read disciplines over one descriptor: "consume
   everything available right now without blocking" (so a piped batch
   is fully enqueued before the first job runs) and "sleep until the
   client says something" (when the queue is empty). Both live on one
   pending-bytes buffer. *)
type reader = {
  fd : Unix.file_descr;
  chunk : bytes;
  mutable pending : string;
  mutable eof : bool;
}

let reader fd = { fd; chunk = Bytes.create 8192; pending = ""; eof = false }

let pop_line r =
  match String.index_opt r.pending '\n' with
  | None -> None
  | Some i ->
    let line = String.sub r.pending 0 i in
    r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
    Some line

let readable fd ~timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* One [read]; marks EOF on 0 bytes. Call only when [readable]. *)
let fill r =
  if not r.eof then
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> r.eof <- true
    | n -> r.pending <- r.pending ^ Bytes.sub_string r.chunk 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> r.eof <- true

(* ---- server state ---------------------------------------------------- *)

type job = {
  id : string;
  digest : string;
  circuit : Circuit.t;
  prop_name : string;
  coi_regs : Bitset.t;  (* the scheduler's cone-grouping key *)
  budget : Protocol.budget;
}

type state = {
  pool : Pool.t;
  base : Rfn.config;
  checkpoint_dir : string option;
  output : out_channel;
  mutable queue : job list;  (* submission order *)
  mutable order : string list;  (* every id ever submitted, oldest first *)
  states : (string, string) Hashtbl.t;  (* id -> queued/running/... *)
  circuits : (string, Circuit.t) Hashtbl.t;  (* digest -> parsed design *)
  sources : (string, string) Hashtbl.t;  (* design source key -> digest *)
  mutable shutdown : bool;
  mutable completed : int;
}

let emit st j =
  Json.to_channel st.output j;
  output_char st.output '\n';
  flush st.output

let error_event ?id msg =
  let base = [ ("ev", Json.Str "error"); ("message", Json.Str msg) ] in
  Json.Obj (match id with None -> base | Some i -> base @ [ ("id", Json.Str i) ])

(* ---- submit ---------------------------------------------------------- *)

(* The circuit cache is keyed by digest, and the digest resolved via a
   source-key cache (path, or a hash of the inline text) so a batch
   over one design parses it once. Resolving through the digest also
   guarantees every job of a digest shares ONE [Circuit.t] — signal
   ids in the job's property resolve against the same numbering the
   pooled session was built on. *)
let resolve_design st design =
  let key =
    match design with
    | Protocol.File path -> "file:" ^ path
    | Protocol.Netlist text -> "inline:" ^ Digest.to_hex (Digest.string text)
  in
  let parse () =
    match design with
    | Protocol.File path -> Netlist_io.load path
    | Protocol.Netlist text -> Netlist_io.parse text
  in
  let cached digest =
    Option.map (fun c -> (digest, c)) (Hashtbl.find_opt st.circuits digest)
  in
  match Option.bind (Hashtbl.find_opt st.sources key) cached with
  | Some hit -> hit
  | None ->
    (* Cache miss — or a source mapping whose circuit entry is gone.
       Re-parse and self-heal the mapping. *)
    let circuit = parse () in
    let d = Checkpoint.hash_circuit circuit in
    if not (Hashtbl.mem st.circuits d) then Hashtbl.add st.circuits d circuit;
    Hashtbl.replace st.sources key d;
    (d, circuit)

let submit st (s : Protocol.submit) =
  if Hashtbl.mem st.states s.id then
    emit st (error_event ~id:s.id (Printf.sprintf "duplicate job id %S" s.id))
  else
    match
      let digest, circuit = resolve_design st s.design in
      let prop = Property.of_output circuit s.property in
      let coi = Coi.compute circuit ~roots:(Property.roots prop) in
      { id = s.id; digest; circuit; prop_name = s.property;
        coi_regs = coi.Coi.regs; budget = s.budget }
    with
    | exception Sys_error msg -> emit st (error_event ~id:s.id msg)
    | exception Failure msg -> emit st (error_event ~id:s.id msg)
    | exception Invalid_argument _ ->
      emit st
        (error_event ~id:s.id
           (Printf.sprintf "no output %S in this design" s.property))
    | job ->
      Telemetry.incr c_submitted;
      st.queue <- st.queue @ [ job ];
      st.order <- st.order @ [ s.id ];
      Hashtbl.replace st.states s.id "queued";
      emit st (Json.Obj [ ("ev", Json.Str "ack"); ("id", Json.Str s.id) ])

(* ---- status / cancel ------------------------------------------------- *)

let status st id =
  (* An unknown id answers with a structured error line instead of an
     empty job list (and [Hashtbl.find_opt] instead of a bare find, so
     a state-table gap can never raise out of the serve loop). *)
  let state_of i =
    Option.value ~default:"unknown" (Hashtbl.find_opt st.states i)
  in
  match id with
  | Some i when not (Hashtbl.mem st.states i) ->
    emit st (error_event ~id:i (Printf.sprintf "unknown job id %S" i))
  | _ ->
    let ids =
      match id with
      | None -> st.order
      | Some i -> List.filter (String.equal i) st.order
    in
    let jobs =
      List.map
        (fun i ->
          Json.Obj
            [ ("id", Json.Str i); ("state", Json.Str (state_of i)) ])
        ids
    in
    emit st (Json.Obj [ ("ev", Json.Str "status"); ("jobs", Json.List jobs) ])

let cancel st id =
  match Hashtbl.find_opt st.states id with
  | Some "queued" ->
    Telemetry.incr c_cancelled;
    st.queue <- List.filter (fun j -> j.id <> id) st.queue;
    Hashtbl.replace st.states id "cancelled";
    emit st
      (Json.Obj
         [ ("ev", Json.Str "result"); ("id", Json.Str id);
           ("verdict", Json.Str "cancelled") ])
  | Some state ->
    emit st (error_event ~id (Printf.sprintf "job is %s, not queued" state))
  | None -> emit st (error_event ~id (Printf.sprintf "unknown job id %S" id))

(* ---- running one job ------------------------------------------------- *)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

let config_of_job st (j : job) =
  let b = j.budget in
  let pick o field = Option.value ~default:field o in
  let checkpoint, resume =
    match st.checkpoint_dir with
    | None -> (None, false)
    | Some dir ->
      let file =
        Filename.concat dir
          (Printf.sprintf "%s-%s-%s.json"
             (String.sub j.digest 0 (min 12 (String.length j.digest)))
             (sanitize j.prop_name) (sanitize j.id))
      in
      (Some file, true)
  in
  {
    st.base with
    Rfn.job_id = j.id;
    max_iterations = pick b.Protocol.max_iterations st.base.Rfn.max_iterations;
    node_limit = pick b.Protocol.node_limit st.base.Rfn.node_limit;
    mc_max_steps = pick b.Protocol.mc_max_steps st.base.Rfn.mc_max_steps;
    max_seconds =
      (match b.Protocol.max_seconds with
      | Some s -> Some s
      | None -> st.base.Rfn.max_seconds);
    engines = pick b.Protocol.engines st.base.Rfn.engines;
    analyze = pick b.Protocol.analyze st.base.Rfn.analyze;
    checkpoint;
    resume;
  }

let run_job st (j : job) =
  Hashtbl.replace st.states j.id "running";
  let config = config_of_job st j in
  let prop = Property.of_output j.circuit j.prop_name in
  let scope = Telemetry.scope () in
  let saved_context = Telemetry.context () in
  Telemetry.set_context (("job", Json.Str j.id) :: saved_context);
  let session, warm =
    Pool.acquire st.pool ~digest:j.digest ~create:(fun () ->
        Rfn.prepare ~config j.circuit ~roots:(Property.roots prop))
  in
  Log.info (fun m ->
      m "job %s: %s on %s session" j.id j.prop_name
        (if warm then "warm" else "cold"));
  let verdict_fields =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_context saved_context)
      (fun () ->
        match Rfn.verify_in_session ~config session prop with
        | Rfn.Proved, stats ->
          [ ("verdict", Json.Str "proved");
            ("seconds", Json.Float stats.Rfn.seconds);
            ("iterations", Json.Int (List.length stats.Rfn.provenance));
            ("final_regs", Json.Int stats.Rfn.final_abstract_regs);
            ( "provenance",
              Json.List (List.map Provenance.to_json stats.Rfn.provenance) ) ]
        | Rfn.Falsified trace, stats ->
          [ ("verdict", Json.Str "falsified");
            ("seconds", Json.Float stats.Rfn.seconds);
            ("iterations", Json.Int (List.length stats.Rfn.provenance));
            ("final_regs", Json.Int stats.Rfn.final_abstract_regs);
            ("trace", Codec.trace_to_json trace);
            ( "provenance",
              Json.List (List.map Provenance.to_json stats.Rfn.provenance) ) ]
        | Rfn.Aborted failure, stats ->
          [ ("verdict", Json.Str "aborted");
            ("seconds", Json.Float stats.Rfn.seconds);
            ("iterations", Json.Int (List.length stats.Rfn.provenance));
            ("final_regs", Json.Int stats.Rfn.final_abstract_regs);
            ("failure", Json.Obj (F.to_attrs failure));
            ( "provenance",
              Json.List (List.map Provenance.to_json stats.Rfn.provenance) ) ]
        | exception e ->
          (* the session's state can no longer be trusted — drop it so
             the next job of this design starts cold instead of weird *)
          Pool.drop st.pool ~digest:j.digest;
          let failure =
            F.make ~iteration:0 ~engine:F.Cegar ~phase:F.Loop
              (F.Invariant ("uncaught exception: " ^ Printexc.to_string e))
          in
          [ ("verdict", Json.Str "aborted");
            ("failure", Json.Obj (F.to_attrs failure)) ])
  in
  let counters =
    List.map (fun (n, d) -> (n, Json.Int d)) (Telemetry.scope_delta scope)
  in
  let verdict =
    match List.assoc_opt "verdict" verdict_fields with
    | Some (Json.Str v) -> v
    | _ -> "aborted"
  in
  Hashtbl.replace st.states j.id ("done:" ^ verdict);
  Telemetry.incr c_completed;
  st.completed <- st.completed + 1;
  emit st
    (Json.Obj
       ([ ("ev", Json.Str "result"); ("id", Json.Str j.id) ]
       @ verdict_fields
       @ [ ( "session",
             Json.Obj
               [ ("digest", Json.Str j.digest); ("warm", Json.Bool warm) ] );
           ("counters", Json.Obj counters) ]));
  Pool.trim st.pool

(* ---- the loop -------------------------------------------------------- *)

let handle_line st line =
  let line = String.trim line in
  if line <> "" then
    match Protocol.request_of_line line with
    | Error msg -> emit st (error_event msg)
    | Ok (Protocol.Submit s) -> submit st s
    | Ok (Protocol.Status id) -> status st id
    | Ok (Protocol.Cancel id) -> cancel st id
    | Ok Protocol.Shutdown -> st.shutdown <- true

let run_next st =
  match Scheduler.plan (List.map (fun j -> (j, j.digest, j.coi_regs)) st.queue)
  with
  | [] -> ()
  | j :: _ ->
    st.queue <- List.filter (fun j' -> j'.id <> j.id) st.queue;
    run_job st j

let serve_state st input =
  let r = reader input in
  (* consume every line already buffered or readable without blocking *)
  let rec drain_ready () =
    match pop_line r with
    | Some line ->
      handle_line st line;
      drain_ready ()
    | None ->
      if (not r.eof) && readable r.fd ~timeout:0.0 then begin
        fill r;
        drain_ready ()
      end
  in
  let rec loop () =
    drain_ready ();
    if st.shutdown || r.eof then
      (* drain: every queued job still runs and reports *)
      while st.queue <> [] do
        run_next st
      done
    else if st.queue <> [] then begin
      run_next st;
      loop ()
    end
    else begin
      (* idle and nothing to do: sleep until the client says something *)
      if readable r.fd ~timeout:(-1.0) then fill r;
      loop ()
    end
  in
  loop ();
  emit st
    (Json.Obj
       [ ("ev", Json.Str "bye"); ("jobs_completed", Json.Int st.completed) ])

let make_state ~pool ~config ~checkpoint_dir ~output =
  {
    pool;
    base = config;
    checkpoint_dir;
    output;
    queue = [];
    order = [];
    states = Hashtbl.create 31;
    circuits = Hashtbl.create 7;
    sources = Hashtbl.create 7;
    shutdown = false;
    completed = 0;
  }

let run ?(limits = default_limits) ?(config = Rfn.default_config)
    ?checkpoint_dir ~input ~output () =
  let pool =
    Pool.create ~max_sessions:limits.max_sessions ~max_nodes:limits.max_nodes
      ()
  in
  let st = make_state ~pool ~config ~checkpoint_dir ~output in
  serve_state st input;
  st.completed

let serve_socket ?(limits = default_limits) ?(config = Rfn.default_config)
    ?checkpoint_dir ~path () =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Log.info (fun m -> m "listening on %s" path);
  let pool =
    Pool.create ~max_sessions:limits.max_sessions ~max_nodes:limits.max_nodes
      ()
  in
  let total = ref 0 in
  let stop = ref false in
  while not !stop do
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ ->
      let output = Unix.out_channel_of_descr fd in
      let st = make_state ~pool ~config ~checkpoint_dir ~output in
      (try serve_state st fd
       with e ->
         Log.warn (fun m ->
             m "connection died: %s" (Printexc.to_string e)));
      total := !total + st.completed;
      if st.shutdown then stop := true;
      (* the channel owns the descriptor: closing it closes the fd *)
      close_out_noerr output
  done;
  Unix.close sock;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  !total
