let now () = Unix.gettimeofday ()

(* ---- registry -------------------------------------------------------- *)

type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : int; mutable peak : int }

(* A span name's aggregate: calls, total and longest duration. *)
type agg = {
  t_name : string;
  mutable calls : int;
  mutable total : float;
  mutable max_dur : float;
}

type hist = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
  h_buckets : int array;
}

(* Registration order is kept so reports are stable. *)
type registry = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  spans : (string, agg) Hashtbl.t;
  mutable order : [ `C of counter | `G of gauge | `H of hist ] list;
}

let reg =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    spans = Hashtbl.create 16;
    order = [];
  }

let enabled_flag = ref false
let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

let counter name =
  match Hashtbl.find_opt reg.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.add reg.counters name c;
    reg.order <- `C c :: reg.order;
    c

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let counter_value c = c.count

let gauge name =
  match Hashtbl.find_opt reg.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; value = 0; peak = 0 } in
    Hashtbl.add reg.gauges name g;
    reg.order <- `G g :: reg.order;
    g

let record g v =
  g.value <- v;
  if v > g.peak then g.peak <- v

let rebase g v =
  g.value <- v;
  g.peak <- v

let gauge_value g = g.value
let gauge_peak g = g.peak

let fresh_agg name = { t_name = name; calls = 0; total = 0.0; max_dur = 0.0 }

let agg_observe t dur =
  t.calls <- t.calls + 1;
  t.total <- t.total +. dur;
  if dur > t.max_dur then t.max_dur <- dur

(* ---- histograms ------------------------------------------------------- *)

(* Log-bucketed: bucket 0 holds values <= hist_base, bucket i > 0 holds
   (hist_base * 2^(i-1), hist_base * 2^i]. With base 1 ns and 96
   buckets the range covers sub-microsecond image steps and
   hundred-billion-count resources alike. *)
let hist_base = 1e-9
let hist_nbuckets = 96

type histogram = hist

let histogram name =
  match Hashtbl.find_opt reg.hists name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_count = 0;
        h_sum = 0.0;
        h_max = 0.0;
        h_buckets = Array.make hist_nbuckets 0;
      }
    in
    Hashtbl.add reg.hists name h;
    reg.order <- `H h :: reg.order;
    h

let bucket_index v =
  if v <= hist_base then 0
  else
    let i = int_of_float (Float.ceil (Float.log2 (v /. hist_base))) in
    if i < 1 then 1 else if i >= hist_nbuckets then hist_nbuckets - 1 else i

let bucket_upper i = hist_base *. Float.pow 2.0 (float_of_int i)

let observe h v =
  (* non-finite and negative observations are dropped: a histogram of
     durations or resource counts has no meaningful place for them *)
  if Float.is_finite v && v >= 0.0 then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end

let time_hist h f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now () in
    match f () with
    | v ->
      observe h (now () -. t0);
      v
    | exception e ->
      observe h (now () -. t0);
      raise e
  end

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_max h = h.h_max

let histogram_quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let est = ref h.h_max in
    let cum = ref 0 in
    (try
       for i = 0 to hist_nbuckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           est := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min !est h.h_max
  end

(* forward reference: [reset] also rewinds the span-depth tracker,
   which is declared with the span machinery below *)
let span_depth = ref 0

(* ---- event context --------------------------------------------------- *)

(* Fields appended to every [event] line while set — how server jobs
   stamp the shared JSONL stream with their job id so a reader (e.g.
   [rfn explain]) can de-interleave it. *)
let context_fields : (string * Json.t) list ref = ref []

let set_context fields = context_fields := fields
let context () = !context_fields

let reset () =
  context_fields := [];
  Hashtbl.iter (fun _ c -> c.count <- 0) reg.counters;
  Hashtbl.iter
    (fun _ g ->
      g.value <- 0;
      g.peak <- 0)
    reg.gauges;
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_max <- 0.0;
      Array.fill h.h_buckets 0 hist_nbuckets 0)
    reg.hists;
  Hashtbl.reset reg.spans;
  (* reset assumes no spans are open (it is called between runs) *)
  span_depth := 0

(* ---- job scoping ----------------------------------------------------- *)

(* The registry is process-global; a long-running server attributes
   counters to individual jobs by delta against a snapshot taken when
   the job starts. Gauge peaks are rebaselined to the current value at
   snapshot time, so a job's reported peak is its own, not a leftover
   spike from an earlier job on the same warm session. *)

type scope = { base : (string, int) Hashtbl.t }

let scope () =
  Hashtbl.iter (fun _ g -> g.peak <- g.value) reg.gauges;
  let base = Hashtbl.create (Hashtbl.length reg.counters) in
  Hashtbl.iter (fun name c -> Hashtbl.replace base name c.count) reg.counters;
  { base }

let scope_delta s =
  Hashtbl.fold
    (fun name c acc ->
      (* a counter registered after the snapshot started from 0 *)
      let b = Option.value ~default:0 (Hashtbl.find_opt s.base name) in
      if c.count <> b then (name, c.count - b) :: acc else acc)
    reg.counters []
  |> List.sort compare

(* ---- sinks ----------------------------------------------------------- *)

type sink = { oc : out_channel; epoch : float }

let sink : sink option ref = ref None

(* The Chrome trace sink mirrors the span/event stream into the
   trace-event format, with its own epoch. *)
let trace : (Chrome_trace.t * float) option ref = ref None

let emit_line fields =
  match !sink with
  | None -> ()
  | Some s ->
    Json.to_channel s.oc (Json.Obj fields);
    output_char s.oc '\n'

let event name fields =
  (* context after the explicit fields: an explicit field of the same
     name wins for readers that take the first occurrence *)
  let fields = fields @ !context_fields in
  emit_line (("ev", Json.Str name) :: fields);
  match !trace with
  | None -> ()
  | Some (w, epoch) ->
    Chrome_trace.instant w ~name ~ts:(now () -. epoch) ~args:fields ()

let trace_counter name series =
  match !trace with
  | None -> ()
  | Some (w, epoch) -> Chrome_trace.counter w ~name ~ts:(now () -. epoch) series

let trace_attached () = !trace <> None

let metric_snapshot_events () =
  let evs = ref [] in
  List.iter
    (function
      | `C c ->
        if c.count <> 0 then
          evs :=
            [ ("ev", Json.Str "counter"); ("name", Json.Str c.c_name);
              ("value", Json.Int c.count) ]
            :: !evs
      | `G g ->
        if g.peak <> 0 || g.value <> 0 then
          evs :=
            [ ("ev", Json.Str "gauge"); ("name", Json.Str g.g_name);
              ("value", Json.Int g.value); ("peak", Json.Int g.peak) ]
            :: !evs
      | `H h ->
        if h.h_count <> 0 then begin
          let buckets = ref [] in
          for i = hist_nbuckets - 1 downto 0 do
            if h.h_buckets.(i) <> 0 then
              buckets :=
                Json.List [ Json.Int i; Json.Int h.h_buckets.(i) ] :: !buckets
          done;
          evs :=
            [ ("ev", Json.Str "histogram"); ("name", Json.Str h.h_name);
              ("count", Json.Int h.h_count); ("sum", Json.Float h.h_sum);
              ("max", Json.Float h.h_max);
              ("p50", Json.Float (histogram_quantile h 0.5));
              ("p90", Json.Float (histogram_quantile h 0.9));
              ("buckets", Json.List !buckets) ]
            :: !evs
        end)
    reg.order;
  Hashtbl.fold
    (fun _ t acc ->
      [ ("ev", Json.Str "timer"); ("name", Json.Str t.t_name);
        ("calls", Json.Int t.calls); ("seconds", Json.Float t.total) ]
      :: acc)
    reg.spans !evs
  |> List.rev

let close_jsonl () =
  match !sink with
  | None -> ()
  | Some s ->
    List.iter emit_line (metric_snapshot_events ());
    close_out s.oc;
    sink := None

let close_trace () =
  match !trace with
  | None -> ()
  | Some (w, _) ->
    Chrome_trace.close w;
    trace := None

let detach () =
  close_jsonl ();
  close_trace ()

(* Forked children inherit the sink channels (same fd, same buffered
   bytes). They must neither flush nor close them — either would
   corrupt the parent's file — so a child simply forgets the sinks.
   The descriptors are reclaimed by the child's [Unix._exit]. *)
let abandon_sinks () =
  sink := None;
  trace := None

let trace_complete ?tid ~name ?(args = []) ~start ~dur () =
  match !trace with
  | None -> ()
  | Some (w, epoch) ->
    Chrome_trace.complete w ~name ~cat:"proc" ?tid ~ts:(start -. epoch) ~dur
      ~args ()

let trace_thread_name ~tid name =
  match !trace with
  | None -> ()
  | Some (w, _) -> Chrome_trace.thread_name w ~tid name

(* A process-exit backstop so --metrics-out / --trace-out files are
   complete (snapshot flushed, trace array terminated) even when the
   run dies on an uncaught exception or a structured abort path that
   skips the normal teardown. Both sinks close idempotently. *)
let exit_hook = ref false

let register_exit_hook () =
  if not !exit_hook then begin
    exit_hook := true;
    at_exit detach
  end

let attach_jsonl file =
  close_jsonl ();
  sink := Some { oc = open_out file; epoch = now () };
  register_exit_hook ();
  enable ()

let attach_trace file =
  close_trace ();
  trace := Some (Chrome_trace.create file, now ());
  register_exit_hook ();
  enable ()

(* ---- spans ----------------------------------------------------------- *)

(* span_depth is declared next to [reset] above *)
let current_depth () = !span_depth

let span_agg name =
  match Hashtbl.find_opt reg.spans name with
  | Some t -> t
  | None ->
    let t = fresh_agg name in
    Hashtbl.add reg.spans name t;
    t

let span_stats name =
  match Hashtbl.find_opt reg.spans name with
  | Some t when t.calls > 0 -> Some (t.calls, t.total)
  | _ -> None

(* The depth decrement is the finaliser: even if a sink write raises
   (disk full, closed channel), the span stack stays balanced — the
   supervisor's retry ladders rely on every rung leaving the depth
   where it found it. *)
let close_span ?(error = false) name attrs t0 =
  Fun.protect
    ~finally:(fun () -> decr span_depth)
    (fun () ->
      let dur = now () -. t0 in
      agg_observe (span_agg name) dur;
      (match !sink with
      | None -> ()
      | Some s ->
        let base =
          [ ("ev", Json.Str "span"); ("name", Json.Str name);
            ("ts", Json.Float (t0 -. s.epoch)); ("dur", Json.Float dur);
            ("depth", Json.Int !span_depth) ]
        in
        let base =
          if error then base @ [ ("error", Json.Bool true) ] else base
        in
        let base =
          if attrs = [] then base else base @ [ ("attrs", Json.Obj attrs) ]
        in
        emit_line base);
      match !trace with
      | None -> ()
      | Some (w, epoch) ->
        let args =
          if error then ("error", Json.Bool true) :: attrs else attrs
        in
        Chrome_trace.complete w ~name ~cat:"cegar" ~ts:(t0 -. epoch) ~dur
          ~args ())

let with_span ?(attrs = []) name f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now () in
    Stdlib.incr span_depth;
    match f () with
    | v ->
      close_span name attrs t0;
      v
    | exception e ->
      close_span ~error:true name attrs t0;
      raise e
  end

(* ---- reporting ------------------------------------------------------- *)

let snapshot () =
  let counters = ref []
  and gauges = ref []
  and hists = ref [] in
  List.iter
    (function
      | `C c -> counters := (c.c_name, Json.Int c.count) :: !counters
      | `G g ->
        gauges :=
          ( g.g_name,
            Json.Obj [ ("value", Json.Int g.value); ("peak", Json.Int g.peak) ]
          )
          :: !gauges
      | `H h ->
        hists :=
          ( h.h_name,
            Json.Obj
              [ ("count", Json.Int h.h_count); ("sum", Json.Float h.h_sum);
                ("max", Json.Float h.h_max);
                ("p50", Json.Float (histogram_quantile h 0.5));
                ("p90", Json.Float (histogram_quantile h 0.9)) ] )
          :: !hists)
    reg.order;
  let spans =
    Hashtbl.fold
      (fun name t acc ->
        ( name,
          Json.Obj
            [ ("calls", Json.Int t.calls); ("seconds", Json.Float t.total) ] )
        :: acc)
      reg.spans []
    |> List.sort compare
  in
  Json.Obj
    [ ("counters", Json.Obj !counters); ("gauges", Json.Obj !gauges);
      ("hists", Json.Obj !hists);
      ("spans", Json.Obj spans) ]

let pp_report ppf () =
  let spans =
    Hashtbl.fold (fun _ t acc -> t :: acc) reg.spans []
    |> List.filter (fun t -> t.calls > 0)
    |> List.sort (fun a b -> compare b.total a.total)
  in
  Format.fprintf ppf "== telemetry ==========================================@.";
  if spans <> [] then begin
    Format.fprintf ppf "spans (wall time):@.";
    List.iter
      (fun t ->
        Format.fprintf ppf "  %-28s calls=%-6d total=%8.3fs max=%7.3fs@."
          t.t_name t.calls t.total t.max_dur)
      spans
  end;
  let hists =
    Hashtbl.fold (fun _ h acc -> h :: acc) reg.hists []
    |> List.filter (fun h -> h.h_count > 0)
    |> List.sort (fun a b -> compare a.h_name b.h_name)
  in
  if hists <> [] then begin
    Format.fprintf ppf "histograms (p50/p90/max):@.";
    List.iter
      (fun h ->
        Format.fprintf ppf "  %-28s count=%-6d %8.2g %8.2g %8.2g@." h.h_name
          h.h_count
          (histogram_quantile h 0.5)
          (histogram_quantile h 0.9)
          h.h_max)
      hists
  end;
  let counters =
    Hashtbl.fold (fun _ c acc -> c :: acc) reg.counters []
    |> List.filter (fun c -> c.count <> 0)
    |> List.sort (fun a b -> compare a.c_name b.c_name)
  in
  if counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun c -> Format.fprintf ppf "  %-28s %d@." c.c_name c.count)
      counters
  end;
  (* derived: BDD op-cache hit rate, when the BDD layer is registered *)
  (match
     ( Hashtbl.find_opt reg.counters "bdd.cache_hits",
       Hashtbl.find_opt reg.counters "bdd.cache_misses" )
   with
  | Some h, Some m when h.count + m.count > 0 ->
    Format.fprintf ppf "  %-28s %.1f%% (%d/%d)@." "bdd.cache hit rate"
      (100.0 *. float_of_int h.count /. float_of_int (h.count + m.count))
      h.count (h.count + m.count)
  | _ -> ());
  let gauges =
    Hashtbl.fold (fun _ g acc -> g :: acc) reg.gauges []
    |> List.filter (fun g -> g.peak <> 0 || g.value <> 0)
    |> List.sort (fun a b -> compare a.g_name b.g_name)
  in
  if gauges <> [] then begin
    Format.fprintf ppf "gauges (last/peak):@.";
    List.iter
      (fun g ->
        Format.fprintf ppf "  %-28s %d / %d@." g.g_name g.value g.peak)
      gauges
  end;
  Format.fprintf ppf "=======================================================@."
