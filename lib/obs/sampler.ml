(* Gauges worth sampling on every tick: the hot-path layers keep these
   up to date themselves, the sampler just reads them. Find-or-create
   semantics make the list safe even when a layer never loads. *)
let tracked_gauges =
  [ "bdd.live_nodes"; "sat.clause_db"; "session.nodes_carried" ]

let tick label =
  if Telemetry.enabled () then begin
    let gc = Gc.quick_stat () in
    let allocated_words =
      int_of_float (gc.Gc.minor_words +. gc.Gc.major_words)
    in
    let gc_fields =
      [
        ("gc_heap_words", Json.Int gc.Gc.heap_words);
        ("gc_top_heap_words", Json.Int gc.Gc.top_heap_words);
        ("gc_allocated_words", Json.Int allocated_words);
        ("gc_minor_collections", Json.Int gc.Gc.minor_collections);
        ("gc_major_collections", Json.Int gc.Gc.major_collections);
      ]
    in
    let gauge_fields =
      List.concat_map
        (fun name ->
          let g = Telemetry.gauge name in
          [
            (name, Json.Int (Telemetry.gauge_value g));
            (name ^ ".peak", Json.Int (Telemetry.gauge_peak g));
          ])
        tracked_gauges
    in
    Telemetry.event "sample"
      ((("at", Json.Str label) :: gc_fields) @ gauge_fields);
    if Telemetry.trace_attached () then begin
      Telemetry.trace_counter "gc.heap_words"
        [ ("heap_words", float_of_int gc.Gc.heap_words) ];
      List.iter
        (fun name ->
          let g = Telemetry.gauge name in
          Telemetry.trace_counter name
            [ ("value", float_of_int (Telemetry.gauge_value g)) ])
        tracked_gauges
    end
  end
