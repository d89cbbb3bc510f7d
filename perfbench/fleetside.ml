(* The two verifier-side workloads: no interpreter runs in either.

   fleet-sweep       a canary OTA rollout over a provisioned fleet
                     (lib/ota, firmware writes), then a full-sweep
                     batched swarm-attestation campaign over 10% lossy
                     links with every device challenged every epoch
                     (lib/provision, attestation reads).
   gateway-overload  an open-loop generator offers seeded arrivals above
                     the gateway's capacity through Gateway.arrive and
                     Gateway.step, with network faults, an LRU device
                     store smaller than the fleet and a flight recorder;
                     the recorder's chain is exported and verified at the
                     end. *)

open Tytan_provision
module Rollout = Tytan_ota.Rollout
module Gateway = Tytan_serve.Gateway
module Obs = Tytan_obs.Obs
module Tasks = Tytan_tasks.Task_lib

let s_rollout = Prof.slot "ota.rollout"
let s_sweep = Prof.slot "provision.sweep"
let s_campaign = Prof.slot "bench.campaign"
let s_slice = Prof.slot "bench.slice"
let s_arrive = Prof.slot "serve.arrive"
let s_step = Prof.slot "serve.step"
let s_export = Prof.slot "obs.export"
let s_verify_chain = Prof.slot "obs.verify_chain"

let compressions () =
  (Tytan_crypto.Sha1.total_compressions (), Tytan_crypto.Sha256.total_compressions ())

let crypto_counts (a1, a2) (b1, b2) =
  [ ("crypto.sha1_compressions", float_of_int (b1 - a1));
    ("crypto.sha256_compressions", float_of_int (b2 - a2)) ]

let count_chars s ok =
  let n = ref 0 in
  String.iter (fun ch -> if ok ch then incr n) s;
  !n

(* Engine seeds derive from the workload seed; the engines receive only
   these. *)
let derive seed k = ((seed * 0x9E37) + (k * 0x85EB) + 1) land 0x3FFF_FFFF

(* --- fleet-sweep ------------------------------------------------------------ *)

let sweep_devices = 1024
let sweep_epochs = 2
let ota_devices = 192
let ota_canary = 16
let ota_waves = 2

let fleet_round ~seed ~traced =
  let t_start = Prof.now_ns () in
  let g = Random.State.make [| 0xf1ee7; seed |] in
  let master = Bytes.of_string (Printf.sprintf "bench-master-%08x" (derive seed 0)) in
  let registry = Registry.create ~master in
  (* Provisioning: the registry derives every OTA device's platform key
     up front, as at manufacture; the rollout looks keys up.  Serials
     follow the rollout's dev-NNNNN naming; any other serial is derived
     on demand, so the keys are right either way. *)
  let keys = Hashtbl.create ota_devices in
  for i = 0 to ota_devices - 1 do
    let serial = Printf.sprintf "dev-%05d" i in
    Hashtbl.replace keys serial (Registry.platform_key registry ~serial)
  done;
  let platform_key_of ~serial =
    match Hashtbl.find_opt keys serial with
    | Some key -> key
    | None -> Registry.platform_key registry ~serial
  in
  let incumbent = Tasks.counter () in
  (* Each wave's image differs in its yield count, so every promotion
     changes the fleet's attested identity. *)
  let waves =
    List.init ota_waves (fun k ->
        { Rollout.label = Printf.sprintf "v%d" (k + 1);
          version = k + 1;
          image = Tasks.yielder ~count:(2 + k + Random.State.int g 6) () })
  in
  let ota_seed = derive seed 1 and sweep_seed = derive seed 2 in
  let c = Round.new_checks () in
  let steps = ref [] in
  let crypto0 = compressions () in
  let snap = Prof.snapshot () in
  let t_body = Prof.now_ns () in
  let span s f = if traced then Prof.span s f else f () in
  let ota, swarm =
    Round.timed steps (fun () ->
        let body () =
          let ota =
            span s_rollout (fun () ->
                Rollout.run ~devices:ota_devices ~canary:ota_canary ~seed:ota_seed
                  ~platform_key_of ~incumbent waves)
          in
          let swarm =
            span s_sweep (fun () ->
                Swarm.run ~mode:Swarm.Batched ~devices:sweep_devices
                  ~epochs:sweep_epochs ~seed:sweep_seed ~loss_percent:10 ())
          in
          (ota, swarm)
        in
        if traced then Prof.operation s_campaign 1 body else body ())
  in
  let t_end = Prof.now_ns () in
  (* Every verdict must be applied (OTA) or attested (sweep): this fleet
     has no device faults. *)
  let ota_verdicts = String.concat "" (Rollout.verdicts ota) in
  let sweep_verdicts = String.concat "" (Swarm.verdicts swarm) in
  let ota_ok = count_chars ota_verdicts (( = ) 'A') in
  let sweep_ok = count_chars sweep_verdicts (( = ) 'A') in
  let attempted = String.length ota_verdicts + String.length sweep_verdicts in
  let failed = attempted - ota_ok - sweep_ok in
  ignore (Round.check c ~op:1 (not (Rollout.campaign_failed ota)) "Rollout.campaign_failed");
  ignore (Round.check c ~op:2 (not (Swarm.campaign_failed swarm)) "Swarm.campaign_failed");
  ignore (Round.check c ~op:1 (ota_ok = String.length ota_verdicts) "an OTA verdict is not applied");
  ignore
    (Round.check c ~op:2 (sweep_ok = String.length sweep_verdicts) "a sweep verdict is not attested");
  let verifier_cycles = ota.Rollout.controller_cycles + swarm.Swarm.verifier_cycles in
  let per_epoch f = List.fold_left (fun a e -> a + f e) 0 swarm.Swarm.per_epoch in
  let hits = per_epoch (fun e -> e.Swarm.cache_hits) in
  let misses = per_epoch (fun e -> e.Swarm.cache_misses) in
  let ops = ota_ok + sweep_ok in
  let per_op = float_of_int verifier_cycles /. float_of_int (max 1 ops) in
  let applied =
    List.fold_left (fun a (w : Rollout.wave_stats) -> a + w.Rollout.applied) 0 ota.Rollout.waves
  in
  {
    Round.setup = t_body - t_start;
    body = t_end - t_body;
    steps = Array.of_list !steps;
    ops;
    attempted;
    failed;
    violations = c.log;
    sim = [ ("sim_verifier_cycles_per_op", per_op) ];
    counts =
      crypto_counts crypto0 (compressions ())
      @ [ ("crypto.key_derivations", float_of_int swarm.Swarm.key_derivations);
          ( "netsim.frames_sent",
            float_of_int (swarm.Swarm.frames_sent + ota.Rollout.frames_sent) );
          ( "netsim.frames_dropped",
            float_of_int (swarm.Swarm.frames_dropped + ota.Rollout.frames_dropped) );
          ( "netsim.cache_hit_ratio",
            float_of_int hits /. float_of_int (max 1 (hits + misses)) );
          ("netsim.batches_sealed", float_of_int (per_epoch (fun e -> e.Swarm.batches)));
          ("provision.challenged", float_of_int (per_epoch (fun e -> e.Swarm.challenged)));
          ("provision.verify_cycles", float_of_int swarm.Swarm.verifier_cycles);
          ("ota.applied", float_of_int applied);
          ("ota.update_cycles", float_of_int ota.Rollout.update_cycles) ];
    digest =
      Digest.to_hex (Digest.string (Swarm.to_string swarm ^ Rollout.to_string ota));
    slot_ns = Prof.since snap;
  }

(* --- gateway-overload ------------------------------------------------------- *)

let gw_devices = 512
let gw_slices = 160

(* Offered load in arrivals per slice, above what the gateway settles. *)
let gw_rate = 30

let gw_config =
  { Gateway.default_config with Gateway.store_capacity = gw_devices / 4 }

let gateway_round ~seed ~traced =
  let t_start = Prof.now_ns () in
  let g = Random.State.make [| 0x9a7e; seed |] in
  (* The open-loop arrival schedule: per slice, a count around [gw_rate]
     and a uniformly drawn device for each arrival. *)
  let arrivals =
    Array.init gw_slices (fun _ ->
        let n = gw_rate - 4 + Random.State.int g 9 in
        Array.init n (fun _ -> Random.State.int g gw_devices))
  in
  let obs = Obs.Log.create () in
  let gw =
    Gateway.create ~config:gw_config ~faults:true ~fault_horizon:gw_slices ~obs
      ~devices:gw_devices ~seed:(derive seed 3) ()
  in
  let c = Round.new_checks () in
  let steps = ref [] in
  let admitted = ref 0 and shed_calls = ref 0 and max_depth = ref 0 in
  let crypto0 = compressions () in
  let snap = Prof.snapshot () in
  let t_body = Prof.now_ns () in
  let span s f = if traced then Prof.span s f else f () in
  let slice op f =
    Round.timed steps (fun () -> if traced then Prof.operation s_slice op f else f ())
  in
  Array.iteri
    (fun i devices ->
      slice (i + 1) (fun () ->
          Array.iter
            (fun device ->
              (match span s_arrive (fun () -> Gateway.arrive gw ~device) with
              | Gateway.Admitted -> incr admitted
              | Gateway.Shed _ -> incr shed_calls);
              max_depth := max !max_depth (Gateway.pending_depth gw))
            devices;
          span s_step (fun () -> Gateway.step gw)))
    arrivals;
  (* Drain: no new arrivals; every started session has a deadline, so
     this ends — the cap only turns a hang into a counted violation. *)
  let drain_cap = Gateway.slice gw + (8 * gw_config.Gateway.deadline_slices) in
  let op = ref gw_slices in
  while
    (Gateway.pending_depth gw > 0 || Gateway.inflight_count gw > 0)
    && Gateway.slice gw < drain_cap
  do
    incr op;
    slice !op (fun () -> span s_step (fun () -> Gateway.step gw))
  done;
  let exported = span s_export (fun () -> Obs.Log.export obs) in
  let chain =
    span s_verify_chain (fun () ->
        Obs.Log.verify_chain ~expected_head:(Obs.Log.head_hex obs) exported)
  in
  let t_end = Prof.now_ns () in
  let crypto1 = compressions () in
  (* Everything else is derived from the recorder's stream. *)
  let records = Obs.Log.records obs in
  let count f = List.length (List.filter (fun (r : Obs.record) -> f r.Obs.event) records) in
  let obs_admitted = count (function Obs.Event.Session_admitted _ -> true | _ -> false) in
  let obs_shed = count (function Obs.Event.Session_shed _ -> true | _ -> false) in
  let evictions = count (function Obs.Event.Evicted _ -> true | _ -> false) in
  let settled =
    List.filter_map
      (fun (r : Obs.record) ->
        match r.Obs.event with
        | Obs.Event.Session_settled { verdict; latency; _ } -> Some (verdict, latency)
        | _ -> None)
      records
  in
  let verdict v = List.length (List.filter (fun (w, _) -> w = v) settled) in
  let attested = verdict "attested" and timed_out = verdict "timed-out" in
  let latencies = Round.sorted_floats (List.map (fun (_, l) -> float_of_int l) settled) in
  let rung = Round.tail_rung (Array.length latencies) in
  let n_arrivals = Array.fold_left (fun a d -> a + Array.length d) 0 arrivals in
  let bound = gw_config.Gateway.max_pending in
  List.iter
    (fun (ok, what) -> ignore (Round.check c ~op:0 ok what))
    [ (List.length settled = !admitted, "settled <> admitted");
      (obs_admitted = !admitted, "recorder admissions <> arrive results");
      (obs_shed = !shed_calls, "recorder sheds <> arrive results");
      (!max_depth <= bound, "pending queue exceeded its bound");
      ( (match chain with Ok s -> s.Obs.Log.total = List.length records | Error _ -> false),
        "Obs.Log.verify_chain failed" ) ];
  (* Each store miss derives a key and, once the store is full, evicts;
     the store filled iff anything was evicted. *)
  let key_derivations =
    if evictions > 0 then gw_config.Gateway.store_capacity + evictions else obs_admitted
  in
  let ops = List.length settled in
  {
    Round.setup = t_body - t_start;
    body = t_end - t_body;
    steps = Array.of_list (List.rev !steps);
    ops;
    attempted = n_arrivals;
    failed = n_arrivals - attested;
    violations = c.log;
    sim =
      [ ("sim_latency_slices_p50", Round.percentile latencies 50.);
        ("sim_latency_slices_tail", Round.percentile latencies rung);
        ("sim_latency_slices_tail.pct", rung);
        ("sim_latency_slices.n", float_of_int (Array.length latencies)) ];
    counts =
      crypto_counts crypto0 crypto1
      @ [ ("crypto.key_derivations", float_of_int key_derivations);
          ("serve.admitted", float_of_int !admitted);
          ("serve.shed", float_of_int !shed_calls);
          ("serve.timed_out", float_of_int timed_out);
          ("serve.evictions", float_of_int evictions);
          ("serve.max_queue_depth", float_of_int !max_depth);
          ("obs.records", float_of_int (List.length records)) ];
    digest = Obs.Log.head_hex obs;
    slot_ns = Prof.since snap;
  }
