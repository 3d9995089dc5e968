module Json = Rfn_obs.Json
module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

(* ---- policy ----------------------------------------------------------- *)

type policy = {
  enabled : bool;
  heartbeat_interval : float;
  heartbeat_grace : float;
  max_rss_mb : int;
  kill_grace : float;
  deadline_slack : float;
}

let default_policy =
  {
    enabled = false;
    heartbeat_interval = 0.05;
    heartbeat_grace = 2.0;
    max_rss_mb = 2048;
    kill_grace = 0.5;
    deadline_slack = 0.25;
  }

let policy_of_env () =
  {
    default_policy with
    enabled =
      (match Sys.getenv_opt "RFN_RACE" with
      | Some ("1" | "true" | "yes") -> true
      | Some _ | None -> false);
  }

let available () = Sys.unix

(* ---- fault injection --------------------------------------------------- *)

type worker_fault = Kill | Hang | Garbage

let worker_fault_of_string = function
  | "worker-kill" -> Some Kill
  | "worker-hang" -> Some Hang
  | "worker-garbage" -> Some Garbage
  | _ -> None

let injected : worker_fault option ref = ref None

let take_injected () =
  let f = !injected in
  injected := None;
  f

let with_injected fault f =
  injected := Some fault;
  Fun.protect ~finally:(fun () -> injected := None) f

(* ---- telemetry --------------------------------------------------------- *)

let c_spawned = Telemetry.counter "proc.workers_spawned"
let c_failures = Telemetry.counter "proc.worker_failures"
let c_races = Telemetry.counter "race.runs"
let c_wins = Telemetry.counter "race.wins"

(* Chrome-trace lanes: one per worker, allocated for the whole process
   lifetime so slices of distinct workers never share a lane. Lane 1
   is the main thread. *)
let next_tid =
  let tid = ref 1 in
  fun () ->
    incr tid;
    !tid

(* ---- child side -------------------------------------------------------- *)

(* Resident set in MiB from /proc/self/statm (second field, pages).
   OCaml's Unix has no sysconf; every platform this runs on uses 4 KiB
   pages. Returns 0 whenever /proc is missing, truncated, or
   unreadable — "RSS unknown", counted in [proc.rss_unknown]. The
   watchdog compares [rss > max_rss_mb], so 0 disables the cap: an
   unreadable procfs only loses the OOM guard, never crashes the
   heartbeat that reads it. *)
let c_rss_unknown = Telemetry.counter "proc.rss_unknown"

let rss_mb_of_file path =
  let unknown () =
    Telemetry.incr c_rss_unknown;
    0
  in
  match open_in path with
  | exception Sys_error _ -> unknown ()
  | ic ->
    let rss =
      (* [input_line] itself can raise Sys_error on a procfs read
         error, not just End_of_file — guard both. *)
      match String.split_on_char ' ' (input_line ic) with
      | _ :: resident :: _ ->
        (match int_of_string_opt resident with
        | Some pages -> pages * 4096 / (1024 * 1024)
        | None -> unknown ())
      | _ | (exception End_of_file) | (exception Sys_error _) -> unknown ()
    in
    close_in_noerr ic;
    rss

let rss_mb_self () = rss_mb_of_file "/proc/self/statm"

(* One full line per call. The child owns its pipe end exclusively, so
   partial writes cannot interleave with another process; the only
   concurrent writer is this child's own SIGALRM heartbeat, which is
   quiesced before the result line is written. *)
let write_line fd json =
  let s = Json.to_string json ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let quiesce_heartbeat () =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

let child_main ~policy ~fd ~inj entrant =
  let hello =
    Json.Obj [ ("ev", Json.Str "hello"); ("pid", Json.Int (Unix.getpid ())) ]
  in
  (match (inj : worker_fault option) with
  | Some Kill ->
    write_line fd hello;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some Hang ->
    write_line fd hello;
    (* a wedged engine: alive but silent — no heartbeats, no result *)
    while true do
      Unix.sleep 3600
    done
  | Some Garbage ->
    write_line fd hello;
    write_line fd (Json.Str "ignored");
    (* bypass the JSON layer: a torn, unparseable line *)
    let garbage = Bytes.of_string "{\"ev\":\"result\",\"payl\xff\n" in
    ignore (Unix.write fd garbage 0 (Bytes.length garbage));
    Unix._exit 0
  | None -> ());
  write_line fd hello;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         write_line fd
           (Json.Obj
              [ ("ev", Json.Str "hb"); ("rss_mb", Json.Int (rss_mb_self ())) ])));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       {
         Unix.it_interval = policy.heartbeat_interval;
         it_value = policy.heartbeat_interval;
       });
  let result =
    try Ok (entrant ())
    with e -> Error (Printexc.to_string e)
  in
  quiesce_heartbeat ();
  (match result with
  | Ok payload ->
    write_line fd
      (Json.Obj [ ("ev", Json.Str "result"); ("payload", payload) ]);
    Unix._exit 0
  | Error detail ->
    write_line fd
      (Json.Obj
         [
           ("ev", Json.Str "error");
           ("resource", Json.Str (F.resource_tag F.Worker_crashed));
           ("detail", Json.Str detail);
         ]);
    Unix._exit 1)

(* ---- parent side ------------------------------------------------------- *)

type entrant = { name : string; run : unit -> Json.t }
type verdict = Win | Hold | Reject of string
type failure = { entrant : string; resource : F.resource; detail : string }

type outcome =
  | Winner of string * Json.t
  | Held of string * Json.t
  | All_failed of failure list

type worker = {
  w_name : string;
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  started : float;
  tid : int;
  mutable last_hb : float;
  mutable rss_mb : int;
  mutable term_sent : (float * F.resource * string) option;
      (** the watchdog's SIGTERM, awaiting escalation to SIGKILL *)
  mutable payload : (verdict * Json.t) option;
  mutable failed : failure option;
  mutable eof : bool;
  mutable reaped : bool;
}

let record_failure failures w resource detail =
  let f = { entrant = w.w_name; resource; detail } in
  w.failed <- Some f;
  failures := f :: !failures;
  Telemetry.incr c_failures;
  Telemetry.event "proc.worker_failure"
    [
      ("entrant", Json.Str w.w_name);
      ("resource", Json.Str (F.resource_tag resource));
      ("detail", Json.Str detail);
    ]

let signal_worker w signal =
  try Unix.kill w.pid signal with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let reap w =
  if not w.reaped then begin
    w.reaped <- true;
    match Unix.waitpid [] w.pid with
    | _, status -> Some status
    | exception Unix.Unix_error (_, _, _) -> None
  end
  else None

let status_detail = function
  | None -> "unknown exit"
  | Some (Unix.WEXITED n) -> Printf.sprintf "exited %d" n
  | Some (Unix.WSIGNALED s) -> Printf.sprintf "signaled %d" s
  | Some (Unix.WSTOPPED s) -> Printf.sprintf "stopped %d" s

let finish_lane w ~outcome =
  let dur = Telemetry.now () -. w.started in
  Telemetry.trace_complete ~tid:w.tid ~name:("worker:" ^ w.w_name)
    ~args:[ ("outcome", Json.Str outcome) ]
    ~start:w.started ~dur ()

let spawn ~policy entrant =
  let inj = take_injected () in
  let r, w = Unix.pipe () in
  (* the child inherits stdio buffers: flush so it cannot re-emit
     bytes the parent already queued *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       Telemetry.abandon_sinks ();
       Unix.close r;
       child_main ~policy ~fd:w ~inj entrant.run
     with _ -> ());
    Unix._exit 125
  | pid ->
    Unix.close w;
    Telemetry.incr c_spawned;
    let tid = next_tid () in
    Telemetry.trace_thread_name ~tid ("worker:" ^ entrant.name);
    let now = Telemetry.now () in
    {
      w_name = entrant.name;
      pid;
      fd = r;
      buf = Buffer.create 256;
      started = now;
      tid;
      last_hb = now;
      rss_mb = 0;
      term_sent = None;
      payload = None;
      failed = None;
      eof = false;
      reaped = false;
    }

(* A worker still being supervised: its pipe is open and it has not
   yet been disqualified. *)
let live w = (not w.eof) && w.failed = None

let handle_line ~classify ~failures w line =
  match Json.of_string line with
  | exception Failure _ ->
    record_failure failures w F.Worker_garbage "unparseable protocol line";
    signal_worker w Sys.sigkill
  | j -> (
    match Option.bind (Json.member "ev" j) Json.to_str with
    | Some "hello" -> w.last_hb <- Telemetry.now ()
    | Some "hb" ->
      w.last_hb <- Telemetry.now ();
      (match Option.bind (Json.member "rss_mb" j) Json.to_int with
      | Some rss -> w.rss_mb <- rss
      | None -> ())
    | Some "result" -> (
      match Json.member "payload" j with
      | None ->
        record_failure failures w F.Worker_garbage "result without payload";
        signal_worker w Sys.sigkill
      | Some payload -> (
        match classify payload with
        | Reject why ->
          record_failure failures w F.Worker_garbage
            ("rejected payload: " ^ why);
          signal_worker w Sys.sigkill
        | (Win | Hold) as v -> w.payload <- Some (v, payload)))
    | Some "error" ->
      let resource =
        match
          Option.bind (Json.member "resource" j) (fun v ->
              Option.bind (Json.to_str v) F.resource_of_tag)
        with
        | Some r -> r
        | None -> F.Worker_crashed
      in
      let detail =
        match Option.bind (Json.member "detail" j) Json.to_str with
        | Some d -> d
        | None -> ""
      in
      record_failure failures w resource detail
    | Some _ | None ->
      record_failure failures w F.Worker_garbage "unknown protocol event";
      signal_worker w Sys.sigkill)

(* Drain readable bytes into the worker's line buffer and process every
   complete line. Returns on EOF after reaping and classifying. *)
let handle_readable ~classify ~failures w =
  let chunk = Bytes.create 4096 in
  match Unix.read w.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | 0 ->
    w.eof <- true;
    Unix.close w.fd;
    let status = reap w in
    (match (w.payload, w.failed, w.term_sent) with
    | Some _, _, _ | _, Some _, _ -> ()
    | None, None, Some (_, resource, detail) ->
      record_failure failures w resource detail
    | None, None, None ->
      record_failure failures w F.Worker_crashed (status_detail status))
  | n ->
    Buffer.add_subbytes w.buf chunk 0 n;
    let data = Buffer.contents w.buf in
    Buffer.clear w.buf;
    let rec split from =
      match String.index_from_opt data from '\n' with
      | None -> Buffer.add_substring w.buf data from (String.length data - from)
      | Some nl ->
        if w.failed = None then
          handle_line ~classify ~failures w (String.sub data from (nl - from));
        split (nl + 1)
    in
    split 0

(* The watchdog's kill ladder: SIGTERM now, SIGKILL after the grace
   period (checked on later poll rounds). *)
let request_kill w resource detail =
  if w.term_sent = None && live w then begin
    w.term_sent <- Some (Telemetry.now (), resource, detail);
    signal_worker w Sys.sigterm
  end

let watchdog ~policy ~hard_deadline workers =
  let now = Telemetry.now () in
  let hb_limit = policy.heartbeat_interval +. policy.heartbeat_grace in
  List.iter
    (fun w ->
      if live w then begin
        (match w.term_sent with
        | Some (at, _, _) when now -. at > policy.kill_grace ->
          signal_worker w Sys.sigkill
        | Some _ | None -> ());
        if w.term_sent = None && w.payload = None then begin
          if w.rss_mb > policy.max_rss_mb then
            request_kill w F.Worker_oom
              (Printf.sprintf "rss %d MiB > cap %d MiB" w.rss_mb
                 policy.max_rss_mb)
          else if now -. w.last_hb > hb_limit then
            request_kill w F.Worker_timeout
              (Printf.sprintf "heartbeat silent for %.2fs" (now -. w.last_hb))
          else
            match hard_deadline with
            | Some d when now > d ->
              request_kill w F.Worker_timeout "query deadline exceeded"
            | Some _ | None -> ()
        end
      end)
    workers

let cancel_loser w =
  if not w.eof then begin
    signal_worker w Sys.sigterm;
    signal_worker w Sys.sigkill;
    ignore (reap w);
    Unix.close w.fd;
    w.eof <- true
  end

(* ---- the race ---------------------------------------------------------- *)

let race ?deadline ~policy ~classify entrants =
  if entrants = [] then invalid_arg "Proc.race: no entrants";
  if not (available ()) then invalid_arg "Proc.race: no fork on this platform";
  Telemetry.incr c_races;
  let start = Telemetry.now () in
  let hard_deadline =
    Option.map (fun d -> start +. d +. policy.deadline_slack) deadline
  in
  let failures = ref [] in
  let workers = List.map (spawn ~policy) entrants in
  let winner = ref None in
  let find_winner () =
    if !winner = None then
      List.iter
        (fun w ->
          match w.payload with
          | Some (Win, payload) when !winner = None ->
            winner := Some (w, payload)
          | _ -> ())
        workers
  in
  while !winner = None && List.exists (fun w -> not w.eof) workers do
    let fds =
      List.filter_map (fun w -> if w.eof then None else Some w.fd) workers
    in
    let readable =
      match Unix.select fds [] [] 0.05 with
      | ready, _, _ -> ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun w ->
        if (not w.eof) && List.mem w.fd readable then
          handle_readable ~classify ~failures w)
      workers;
    find_winner ();
    if !winner = None then watchdog ~policy ~hard_deadline workers
  done;
  match !winner with
  | Some (w, payload) ->
    finish_lane w ~outcome:"win";
    List.iter
      (fun l ->
        if l.pid <> w.pid then begin
          cancel_loser l;
          finish_lane l
            ~outcome:
              (match (l.payload, l.failed) with
              | Some _, _ -> "held"
              | None, Some f -> F.resource_tag f.resource
              | None, None -> "cancelled")
        end)
      workers;
    (* drain the winner's pipe to EOF so it is reaped, not zombied *)
    if not w.eof then begin
      (try
         while not w.eof do
           handle_readable ~classify ~failures w
         done
       with Unix.Unix_error (_, _, _) -> ());
      if not w.eof then begin
        ignore (reap w);
        (try Unix.close w.fd with Unix.Unix_error (_, _, _) -> ());
        w.eof <- true
      end
    end;
    Telemetry.incr c_wins;
    Telemetry.incr (Telemetry.counter ("race.wins." ^ w.w_name));
    Winner (w.w_name, payload)
  | None -> (
    List.iter
      (fun w ->
        finish_lane w
          ~outcome:
            (match (w.payload, w.failed) with
            | Some _, _ -> "held"
            | None, Some f -> F.resource_tag f.resource
            | None, None -> "lost"))
      workers;
    let held =
      List.find_map
        (fun w ->
          match w.payload with
          | Some ((Win | Hold), payload) -> Some (w.w_name, payload)
          | Some (Reject _, _) | None -> None)
        workers
    in
    match held with
    | Some (name, payload) -> Held (name, payload)
    | None -> All_failed (List.rev !failures))
