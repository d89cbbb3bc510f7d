(* The benchmark runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run repeats rounds of the workload (set-up, then a fixed,
   seed-determined amount of work) until [--seconds] have passed and the
   workload's minimum step count is reached.  The first round warms the
   process and is left out of every host figure.  Every round must
   reproduce the first round's simulated results exactly.

   --trace 0 ends with one JSON line holding every end-to-end metric
   with its value and sample count.
   --trace 1 alternates untraced and traced rounds: the traced ones
   record spans and per-layer self time, and must reproduce the untraced
   ones' simulated results (no perturbation).  It writes a Chrome trace,
   prints the per-layer self-time table, and ends with one JSON line
   holding the per-layer metrics.
   Units and axes live in BENCHMARK.json and perfbench/metrics.json;
   perfbench/run.py adds them, prints the report and the benchmark's
   result line. *)

type workload = {
  name : string;
  run_round : seed:int -> traced:bool -> Round.t;
  min_steps : int;
      (** steps a run drives at least — fixes the tail percentile the
          run reports, whatever the host speed *)
  op : string;  (** what one operation is *)
  step : string;  (** what one step is *)
  device : bool;  (** runs the interpreter *)
}

let workloads =
  [ { name = "device-idle"; run_round = Device.idle_round; min_steps = 600;
      op = "tick"; step = "tick"; device = true };
    { name = "device-churn"; run_round = Device.churn_round; min_steps = 100;
      op = "load-run-attest-unload cycle"; step = "churn cycle"; device = true };
    { name = "fleet-sweep"; run_round = Fleetside.fleet_round; min_steps = 40;
      op = "device verdict"; step = "rollout + sweep campaign"; device = false };
    { name = "gateway-overload"; run_round = Fleetside.gateway_round; min_steps = 200;
      op = "settled session"; step = "gateway slice"; device = false } ]

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* --- The round loop --------------------------------------------------------- *)

type measured = {
  round : Round.t;
  traced : bool;
  minor_words : float;
  major_collections : int;
}

let run_rounds w ~seed ~seconds ~trace =
  let start = Prof.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let rounds = ref [] and steps = ref 0 and traced_rounds = ref 0 in
  let rec loop i =
    (* Trace mode alternates: warm-up, traced, untraced, traced, ... *)
    let traced = trace && i mod 2 = 1 in
    if traced && !traced_rounds = 0 then Prof.recording := true;
    (* Every round starts from a compacted heap, so its garbage
       collection work and its heap peak do not depend on the rounds
       before it, nor on how many there were. *)
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let round = w.run_round ~seed ~traced in
    let g1 = Gc.quick_stat () in
    Prof.recording := false;
    if traced then incr traced_rounds;
    if i > 0 then begin
      rounds :=
        { round; traced;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections }
        :: !rounds;
      if not traced then steps := !steps + Array.length round.Round.steps
    end;
    let untraced_done = List.exists (fun m -> not m.traced) !rounds in
    if
      Prof.now_ns () < deadline || !steps < w.min_steps || not untraced_done
      || (trace && !traced_rounds = 0)
    then loop (i + 1)
    else List.rev !rounds
  in
  loop 0

(* --- Metrics ---------------------------------------------------------------- *)

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

(* A rate per round, then the median over rounds. *)
let median_rate per_round rounds =
  Round.median
    (List.map (fun m -> per_round m.round /. (float_of_int m.round.Round.body /. 1e9)) rounds)

let ops_per_s = median_rate (fun r -> float_of_int r.Round.ops)

(* The fastest round's rate.  Every round does the same work, and host
   noise only ever slows a round, so this ignores the slow stretches
   that move the median rate above; a host that stays slow for the
   whole run still slows it. *)
let peak_ops_per_s rounds =
  List.fold_left
    (fun best m ->
      Float.max best (float_of_int m.round.Round.ops /. (float_of_int m.round.Round.body /. 1e9)))
    0. rounds

(* Host and simulated end-to-end metrics over the untraced rounds, each
   with its sample count and (for tails) the percentile it reports. *)
let e2e w ~warm ~untraced =
  let sim name = List.assoc_opt name warm.Round.sim in
  let heap = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  let steps =
    Round.sorted_floats
      (List.concat_map
         (fun m -> Array.to_list (Array.map (fun ns -> float_of_int ns /. 1e3) m.round.Round.steps))
         untraced)
  in
  let rung = Round.tail_rung w.min_steps in
  let n_steps = Array.length steps and n_rounds = List.length untraced in
  let host =
    [ ( "setup_s",
        Some (Round.median (List.map (fun m -> float_of_int m.round.Round.setup /. 1e9) untraced)),
        n_rounds, None );
      ("ops_per_s", Some (ops_per_s untraced), n_rounds, None);
      ("ops_per_s_peak", Some (peak_ops_per_s untraced), n_rounds, None);
      ("step_host_us_p50", Some (Round.percentile steps 50.), n_steps, None);
      ("step_host_us_tail", Some (Round.percentile steps rung), n_steps, Some rung);
      ( "sim_mips",
        (match sim "instructions" with
        | Some i when w.device -> Some (median_rate (fun _ -> i) untraced /. 1e6)
        | _ -> None),
        n_rounds, None );
      ("peak_heap_mb", Some heap, 1, None) ]
  in
  (* Workload-defined failures of the (identical) rounds, per 1000
     attempted; completed_permille is the same count from the other
     side, which is never 0. *)
  let permille k = 1000. *. float_of_int k /. float_of_int (max 1 warm.Round.attempted) in
  let failures =
    [ ("failed_permille", Some (permille warm.Round.failed), warm.Round.attempted, None);
      ( "completed_permille",
        Some (permille (warm.Round.attempted - warm.Round.failed)),
        warm.Round.attempted, None ) ]
  in
  let sim_n name = Option.value ~default:1. (sim (name ^ ".n")) |> int_of_float in
  let simulated =
    List.map
      (fun name ->
        let n =
          if String.ends_with ~suffix:"_tail" name || String.ends_with ~suffix:"_p50" name then
            sim_n (String.sub name 0 (String.rindex name '_'))
          else 1
        in
        (name, sim name, n, sim (name ^ ".pct")))
      [ "sim_os_permille"; "sim_load_cycles_p50";
        "sim_load_cycles_tail"; "sim_verifier_cycles_per_op"; "sim_latency_slices_p50";
        "sim_latency_slices_tail" ]
  in
  host @ failures @ simulated

(* Self ns and calls per accounting slot, summed over rounds, largest
   first. *)
let slot_totals rounds =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun m ->
      List.iter
        (fun (name, ns, calls) ->
          let ns0, c0 = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
          Hashtbl.replace tbl name (ns0 + ns, c0 + calls))
        m.round.Round.slot_ns)
    rounds;
  List.sort (fun (_, (a, _)) (_, (b, _)) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))

(* Self ns per layer, indexed like [Prof.layers]. *)
let layer_totals rows =
  let by_layer = Array.make (Array.length Prof.layers) 0 in
  List.iter
    (fun (name, (ns, _)) ->
      let l = Prof.layer_of name in
      by_layer.(l) <- by_layer.(l) + ns)
    rows;
  by_layer

(* Per-layer metrics over the traced rounds: counts are exact per round;
   self time is each layer's share of the traced rounds' body time.
   Layers a workload does not reach report no counts. *)
let per_layer ~traced ~untraced =
  let total_ns = sum (fun m -> float_of_int m.round.Round.body) traced in
  let layer_ns = layer_totals (slot_totals traced) in
  (* Counts only the wrapped hooks see come from a traced round; the rest
     from an untraced one, whose allocation the wrappers did not add to. *)
  let hooked = [ "eampu.checks"; "eampu.denials"; "rtos.polls" ] in
  let counts =
    List.filter (fun (name, _) -> List.mem name hooked) (List.hd traced).round.Round.counts
    @ List.filter (fun (name, _) -> not (List.mem name hooked)) (List.hd untraced).round.Round.counts
  in
  let n_untraced = float_of_int (List.length untraced) in
  let gc f = sum f untraced /. n_untraced in
  Array.to_list
    (Array.mapi
       (fun i layer -> (layer ^ ".self_permille", 1000. *. float_of_int layer_ns.(i) /. total_ns))
       Prof.layers)
  @ counts
  @ [ ("gc.minor_words", gc (fun m -> m.minor_words));
      ("gc.major_collections", gc (fun m -> float_of_int m.major_collections));
      ("gc.top_heap_mb", mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
      ("trace.overhead_ratio", ops_per_s traced /. ops_per_s untraced) ]

(* Host ns per SHA-1 and per SHA-256 compression, timed in this process. *)
let compression_ns () =
  let buf = Bytes.make 16384 'x' in
  let per digest count =
    let c0 = count () and t0 = Prof.now_ns () in
    for _ = 1 to 16 do
      ignore (digest buf)
    done;
    float_of_int (Prof.now_ns () - t0) /. float_of_int (count () - c0)
  in
  ( per Tytan_crypto.Sha1.digest Tytan_crypto.Sha1.total_compressions,
    per Tytan_crypto.Sha256.digest Tytan_crypto.Sha256.total_compressions )

(* Self time by layer and by slot over the traced rounds, per round. *)
let self_time_table w traced =
  let n = float_of_int (List.length traced) in
  let rows = slot_totals traced in
  let total = sum (fun m -> float_of_int m.round.Round.body) traced in
  Printf.printf "\nself time by layer, %s (%d traced rounds; per round)\n" w.name
    (List.length traced);
  Printf.printf "  %-10s %12s %8s\n" "layer" "self_ms" "share";
  let layers =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Array.to_list (Array.mapi (fun i ns -> (Prof.layers.(i), ns)) (layer_totals rows)))
  in
  List.iter
    (fun (layer, ns) ->
      if ns > 0 then
        Printf.printf "  %-10s %12.3f %7.1f%%\n" layer
          (float_of_int ns /. 1e6 /. n) (100. *. float_of_int ns /. total))
    layers;
  Printf.printf "  %-22s %12s %12s %10s\n" "slot" "self_ms" "calls" "ns/call";
  List.iter
    (fun (name, (ns, calls)) ->
      if calls > 0 || ns > 0 then
        Printf.printf "  %-22s %12.3f %12.0f %10.1f\n" name
          (float_of_int ns /. 1e6 /. n) (float_of_int calls /. n)
          (if calls = 0 then 0. else float_of_int ns /. float_of_int calls))
    rows;
  (* Crypto runs inside provision, ota, serve and core calls that expose
     no boundary around it; price its counted compressions instead. *)
  let first = (List.hd traced).round.Round.counts in
  let count name = Option.value ~default:0. (List.assoc_opt name first) in
  let sha1_ns, sha256_ns = compression_ns () in
  let crypto_ms =
    ((count "crypto.sha1_compressions" *. sha1_ns)
    +. (count "crypto.sha256_compressions" *. sha256_ns))
    /. 1e6
  in
  Printf.printf
    "  derived: %.0f SHA-1 + %.0f SHA-256 compressions per round at %.0f/%.0f ns \
     = %.3f ms (%.1f%%) of crypto inside the slots above\n"
    (count "crypto.sha1_compressions") (count "crypto.sha256_compressions") sha1_ns
    sha256_ns crypto_ms (100. *. crypto_ms *. 1e6 *. n /. total);
  List.filter_map
    (fun (layer, ns) -> if ns > 0 then Some (layer, float_of_int ns /. 1e6 /. n) else None)
    layers
  @ [ ("crypto_derived", crypto_ms) ]

(* --- Output ------------------------------------------------------------------ *)

(* The last line: the outcome and every metric this run measured, by
   name, with [null] for one the workload does not have.  perfbench/run.py
   picks the metrics BENCHMARK.json names and adds their units. *)
let result_line ~correct ~attempted ~failed metrics =
  let value = function
    | Some v when Float.is_finite v -> Prof.json_float v
    | _ -> "null"
  in
  let metric (name, v, n, pct) =
    Printf.sprintf "%s:{\"value\":%s%s%s}" (Prof.json_string name) (value v)
      (match n with Some n -> Printf.sprintf ",\"n\":%d" n | None -> "")
      (match pct with Some p -> ",\"pct\":" ^ Prof.json_float p | None -> "")
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    attempted failed
    (String.concat "," (List.map metric metrics))

(* The traced run's Chrome traces go here, under the working directory. *)
let out_dir = ".perfbench-out"

let run w ~seed ~seconds ~trace =
  let rounds = run_rounds w ~seed ~seconds ~trace in
  let untraced = List.filter (fun m -> not m.traced) rounds in
  let traced = List.filter (fun m -> m.traced) rounds in
  let warm = (List.hd rounds).round in
  (* Correctness: each round's own checks, and identical simulated
     results in every round — traced or not. *)
  let violations = List.concat_map (fun m -> m.round.Round.violations) rounds in
  let divergent =
    List.filter (fun m -> m.round.Round.digest <> warm.Round.digest) rounds
  in
  let perturbed = List.exists (fun m -> m.traced) divergent in
  let correct = violations = [] && divergent = [] in
  Printf.printf "workload %s seed %d: %d rounds (%d traced), op = %s, step = %s\n" w.name
    seed (List.length rounds) (List.length traced) w.op w.step;
  List.iteri
    (fun i (op, what) -> if i < 10 then Printf.printf "  violation: op %d: %s\n" op what)
    (List.sort_uniq compare violations);
  if divergent <> [] then
    Printf.printf "  violation: %d round(s) diverged from the first round's simulated results%s\n"
      (List.length divergent) (if perturbed then " (a traced round: tracing perturbed the run)" else "");
  if trace then Printf.printf "  no-perturbation check: traced and untraced rounds %s\n"
      (if perturbed then "DIFFER" else "identical");
  let attempted = sum (fun m -> float_of_int m.round.Round.attempted) rounds |> int_of_float in
  let failed = sum (fun m -> float_of_int (Round.violated_ops m.round)) rounds |> int_of_float in
  let failed = if correct then failed else max 1 failed in
  if not trace then
    result_line ~correct ~attempted ~failed
      (List.map (fun (name, v, n, pct) -> (name, v, Some n, pct)) (e2e w ~warm ~untraced))
  else begin
    let layers = self_time_table w traced in
    let metrics = per_layer ~traced ~untraced in
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed) in
    Prof.write_chrome_trace ~path ~process_name:(Printf.sprintf "perfbench %s seed %d" w.name seed)
      ~summary:(("self_ms_per_round", layers) :: [ ("per_layer", metrics) ]);
    Printf.printf "\nchrome trace (first traced round): %s\n" path;
    Printf.printf "tracing overhead: traced/untraced ops_per_s = %.3f\n"
      (List.assoc "trace.overhead_ratio" metrics);
    result_line ~correct ~attempted ~failed
      (List.map (fun (name, v) -> (name, Some v, None, None)) metrics)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w -> (
      try run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with e ->
        (* A round that raises is a failed operation, reported like any
           other violation rather than as a crash. *)
        Printf.printf "workload %s seed %d\n  violation: a round raised %s\n" w.name !seed
          (Printexc.to_string e);
        result_line ~correct:false ~attempted:1 ~failed:1 [])
