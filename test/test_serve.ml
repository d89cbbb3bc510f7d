(* The verifier gateway: admission control, typed load shedding, token
   buckets, deadlines, the LRU device-state store and the circuit
   breaker — plus the fuzz property that hostile frames land in typed
   counters, never exceptions, and the link counter reconciliation the
   gateway's reports lean on. *)

open Tytan_netsim
module Gateway = Tytan_serve.Gateway
module Swarm = Tytan_provision.Swarm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Graceful degradation --------------------------------------------------- *)

let saturation_config =
  {
    Gateway.default_config with
    Gateway.max_pending = 8;
    bucket_capacity = 8;
    bucket_refill_slices = 2;
  }

let gateway_tests =
  [
    Alcotest.test_case "clean moderate load: everything attests" `Quick
      (fun () ->
        (* Load chosen below every limiter: ~1.5 arrivals/slice over 48
           devices stays well inside each token bucket's refill rate. *)
        let r =
          Gateway.run ~devices:48 ~slices:200 ~arrival_permille:1500 ~seed:11 ()
        in
        check_int "no sheds" 0 (Gateway.shed r);
        check_int "all arrivals admitted" r.Gateway.arrivals r.Gateway.admitted;
        check_int "all admitted attested" r.Gateway.admitted r.Gateway.attested;
        check_bool "batched sessions sealed Merkle roots" true
          (List.assoc "swarm.batches_sealed" r.Gateway.telemetry > 0);
        check_bool "latency percentiles populated" true
          (r.Gateway.p50_slices >= 1 && r.Gateway.p99_slices >= r.Gateway.p50_slices));
    Alcotest.test_case
      "saturating load: queue bounded, Busy sheds, everything settles" `Quick
      (fun () ->
        let r =
          Gateway.run ~config:saturation_config ~devices:96 ~slices:200
            ~arrival_permille:12000 ~seed:7 ()
        in
        check_bool "queue depth never exceeds the bound" true
          (r.Gateway.max_queue_depth <= r.Gateway.queue_bound);
        check_bool "overload was real (queue hit the bound)" true
          (r.Gateway.max_queue_depth = r.Gateway.queue_bound);
        check_bool "load was shed with typed Busy refusals" true
          (r.Gateway.shed_busy > 0);
        check_int "every arrival accounted: admitted + shed" r.Gateway.arrivals
          (r.Gateway.admitted + Gateway.shed r);
        check_int "every admitted session settled" r.Gateway.admitted
          (Gateway.settled r));
    Alcotest.test_case "hammering device: token bucket refuses Rate_limited"
      `Quick (fun () ->
        (* Few devices, high rate: each device's bucket drains and the
           per-device limiter, not the global queue, does the shedding. *)
        let r =
          Gateway.run ~devices:8 ~slices:200 ~arrival_permille:8000 ~seed:3 ()
        in
        check_bool "rate-limited sheds dominate" true
          (r.Gateway.shed_rate_limited > 0);
        check_int "no Busy sheds (queue never filled)" 0 r.Gateway.shed_busy);
    Alcotest.test_case "dead links: breaker trips, device quarantined" `Quick
      (fun () ->
        let r =
          Gateway.run ~devices:4 ~slices:160 ~arrival_permille:2000 ~seed:5
            ~loss_percent:100 ()
        in
        check_int "nothing attests over a dead link" 0 r.Gateway.attested;
        check_bool "sessions time out" true (r.Gateway.timed_out > 0);
        check_bool "breaker tripped" true (r.Gateway.quarantine_trips > 0);
        check_bool "quarantined devices reported" true
          (List.length r.Gateway.quarantined > 0);
        check_bool "later arrivals refused Quarantined" true
          (r.Gateway.shed_quarantined > 0);
        check_int "still fully accounted" r.Gateway.arrivals
          (r.Gateway.admitted + Gateway.shed r));
    Alcotest.test_case "bounded store: LRU eviction forces re-derivation"
      `Quick (fun () ->
        let config =
          { Gateway.default_config with Gateway.store_capacity = 8 }
        in
        let r =
          Gateway.run ~config ~devices:32 ~slices:240 ~arrival_permille:4000
            ~seed:9 ()
        in
        check_bool "evictions happened" true (r.Gateway.evictions > 0);
        check_bool "evicted devices re-derived their keys on re-admission"
          true
          (r.Gateway.key_derivations > 32));
    Alcotest.test_case "faulted campaign survives and accounts" `Quick
      (fun () ->
        let r =
          Gateway.run ~devices:48 ~slices:240 ~arrival_permille:5000 ~seed:3
            ~faults:true ()
        in
        check_bool "fault schedule actually fired" true
          (List.exists
             (fun (k, n) -> String.starts_with ~prefix:"fault." k && n > 0)
             r.Gateway.telemetry);
        check_int "every arrival accounted under faults" r.Gateway.arrivals
          (r.Gateway.admitted + Gateway.shed r);
        check_int "every admitted session settled under faults"
          r.Gateway.admitted (Gateway.settled r);
        check_bool "queue stayed bounded under faults" true
          (r.Gateway.max_queue_depth <= r.Gateway.queue_bound));
  ]

(* --- Determinism under load ------------------------------------------------- *)

let determinism_tests =
  [
    Alcotest.test_case "same seed, same load: bit-identical reports" `Quick
      (fun () ->
        let run () =
          Gateway.run ~devices:64 ~slices:160 ~arrival_permille:8000 ~seed:21 ()
        in
        check_bool "clean runs identical" true (Gateway.equal (run ()) (run ())));
    Alcotest.test_case "same seed under faults: bit-identical reports" `Quick
      (fun () ->
        let run () =
          Gateway.run ~devices:48 ~slices:160 ~arrival_permille:6000 ~seed:13
            ~faults:true ()
        in
        check_bool "faulted runs identical" true
          (Gateway.equal (run ()) (run ())));
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let run seed =
          Gateway.run ~devices:32 ~slices:120 ~arrival_permille:5000 ~seed ()
        in
        check_bool "reports differ" false (Gateway.equal (run 1) (run 2)));
    Alcotest.test_case "fault schedule is a pure function of its tuple" `Quick
      (fun () ->
        let f () = Gateway.network_faults ~seed:42 ~devices:24 ~horizon:200 in
        check_bool "same plan twice" true (f () = f ());
        check_bool "plans fire within the horizon" true
          (List.for_all
             (fun (e : _ Campaign.scheduled) -> e.at < 200)
             (f ()));
        check_bool "every faulted device exists" true
          (List.for_all
             (fun (e : _ Campaign.scheduled) -> e.device >= 0 && e.device < 24)
             (f ())));
  ]

(* --- Fuzz: hostile frames land in counters, never exceptions ---------------- *)

(* A pool of plausible-looking wire garbage: valid frames mutated by bit
   flips, truncation and duplication, future-revision tags, and raw
   noise.  The property is the gateway's session demux contract — every
   byte string is classified (malformed / unknown / stale / routed) and
   nothing raises. *)
let hostile_frame_gen =
  QCheck.Gen.(
    let valid =
      let* seq = int_bound 0xFFFF in
      let* img = string_size (int_range 1 12) in
      let* nonce = string_size (int_range 0 24) in
      return
        (Protocol.encode
           (Protocol.Challenge
              {
                seq;
                id = Tytan_core.Task_id.of_image (Bytes.of_string img);
                nonce = Bytes.of_string nonce;
              }))
    in
    let* base = valid in
    let* flips =
      list_size (int_range 0 6) (pair small_nat (int_bound 255))
    in
    let* cut = small_nat in
    let* style = int_bound 3 in
    let frame = Bytes.copy base in
    List.iter
      (fun (pos, v) ->
        Bytes.set frame (pos mod Bytes.length frame) (Char.chr v))
      flips;
    match style with
    | 0 -> return frame
    | 1 -> return (Bytes.sub frame 0 (cut mod Bytes.length frame))
    | 2 -> return (Bytes.cat frame frame)  (* duplicated/concatenated *)
    | _ ->
        let* noise = string_size (int_range 0 40) in
        return (Bytes.of_string noise))

let fuzz_tests =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  [
    to_alcotest
      (QCheck.Test.make
         ~name:"gateway classifies hostile frames and never raises" ~count:150
         (QCheck.pair
            (QCheck.make QCheck.Gen.(int_range 1 1000))
            (QCheck.make QCheck.Gen.(list_size (int_range 1 12) hostile_frame_gen)))
         (fun (seed, frames) ->
           let g = Gateway.create ~devices:3 ~seed ~loss_percent:0 () in
           (* Put live sessions in flight so routed frames have someone
              to reach — the demux, not an empty table, is under test. *)
           for d = 0 to 2 do
             ignore (Gateway.arrive g ~device:d)
           done;
           Gateway.step g;
           List.iteri
             (fun i frame -> Gateway.inject_frame g ~device:(i mod 3) frame)
             frames;
           for _ = 1 to 4 do
             Gateway.step g
           done;
           (* Classified, not swallowed: an injected frame either reached
              a session or sits in exactly one typed counter. *)
           Gateway.malformed_frames g + Gateway.stale_frames g
           + Gateway.unknown_frames g
           <= List.length frames));
    to_alcotest
      (QCheck.Test.make ~name:"raw noise is malformed or stale, never fatal"
         ~count:150
         (QCheck.make
            QCheck.Gen.(
              pair (int_range 1 1000)
                (list_size (int_range 1 10) (string_size (int_range 0 64)))))
         (fun (seed, noise) ->
           let g = Gateway.create ~devices:2 ~seed ~loss_percent:0 () in
           List.iteri
             (fun i s ->
               Gateway.inject_frame g ~device:(i mod 2) (Bytes.of_string s))
             noise;
           (* No sessions exist, so every well-formed frame is stale and
              everything else malformed or unknown-revision: the three
              counters partition the injections exactly. *)
           Gateway.malformed_frames g + Gateway.stale_frames g
           + Gateway.unknown_frames g
           = List.length noise));
  ]

(* --- Link counters ----------------------------------------------------------- *)

let link_tests =
  [
    Alcotest.test_case "reset_counters zeroes counters, not in-flight frames"
      `Quick (fun () ->
        let link = Link.create ~delay:1 () in
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "a");
        Link.send link ~from:Link.Remote ~at:0 (Bytes.of_string "b");
        ignore (Link.deliver link ~to_:Link.Device ~at:1);
        Link.send link ~from:Link.Remote ~at:1 (Bytes.of_string "c");
        Link.reset_counters link;
        List.iter
          (fun (name, v) -> check_int ("zeroed " ^ name) 0 v)
          (Link.counters link);
        (* The frame sent before the reset is still in flight and its
           delivery counts against the fresh counters. *)
        check_int "in-flight frame survives the reset" 1
          (List.length (Link.deliver link ~to_:Link.Device ~at:2));
        check_int "post-reset delivery counted" 1 (Link.delivered_count link));
    Alcotest.test_case "burst drops attributed separately from lottery drops"
      `Quick (fun () ->
        let link = Link.create ~seed:5 ~loss_percent:50 () in
        Link.set_burst link ~until:10;
        for at = 0 to 9 do
          Link.send link ~from:Link.Remote ~at (Bytes.of_string "x")
        done;
        check_int "burst window drops every frame" 10
          (Link.dropped_burst_count link);
        for at = 10 to 29 do
          Link.send link ~from:Link.Remote ~at (Bytes.of_string "y")
        done;
        check_bool "post-burst lottery drops some" true
          (Link.dropped_loss_count link > 0);
        check_bool "and delivers some" true
          (Link.dropped_loss_count link < 20);
        check_int "total is the sum of the reasons — no double count"
          (Link.dropped_loss_count link + Link.dropped_burst_count link)
          (Link.dropped_count link));
    Alcotest.test_case "burst window only extends, never shrinks" `Quick
      (fun () ->
        let link = Link.create () in
        Link.set_burst link ~until:20;
        Link.set_burst link ~until:5;
        check_bool "still active at 15" true (Link.burst_active link ~at:15);
        check_bool "over at 20" false (Link.burst_active link ~at:20));
    Alcotest.test_case
      "drained link reconciles: delivered = sent - dropped + duplicated"
      `Quick (fun () ->
        let link =
          Link.create ~seed:9 ~loss_percent:20 ~corrupt_percent:10
            ~duplicate_percent:10 ~reorder_percent:10 ()
        in
        for at = 0 to 49 do
          Link.send link ~from:Link.Remote ~at (Bytes.make 8 'z')
        done;
        let delivered = ref 0 in
        for at = 0 to 80 do
          delivered :=
            !delivered + List.length (Link.deliver link ~to_:Link.Device ~at)
        done;
        check_int "accessor agrees with observed deliveries" !delivered
          (Link.delivered_count link);
        check_int "conservation holds"
          (Link.sent_count link - Link.dropped_count link
          + Link.duplicated_count link)
          (Link.delivered_count link));
  ]

(* --- Campaign-failure gating ------------------------------------------------- *)

let mk_swarm_report verdicts : Swarm.report =
  {
    Swarm.mode = Swarm.Batched;
    devices = String.length verdicts;
    epochs = 1;
    seed = 1;
    faults = false;
    loss_percent = 10;
    queries_per_epoch = 0;
    churn_permille = 0;
    rollout = None;
    per_epoch =
      [
        {
          Swarm.epoch = 0;
          attested = 0;
          refused = 0;
          gave_up = 0;
          verdicts;
          healthy_polls = 0;
          slices = 0;
          batches = 0;
          root_hex = "";
          cache_hits = 0;
          cache_misses = 0;
          challenged = 0;
          carried = 0;
          delta_changed = 0;
          verify_cycles = 0;
        };
      ];
    verifier_cycles = 0;
    device_cycles = 0;
    frames_sent = 0;
    frames_dropped = 0;
    frames_delivered = 0;
    tampered = 0;
    silenced = 0;
    key_derivations = 0;
    telemetry = [];
    survived = true;
  }

let gating_tests =
  [
    Alcotest.test_case "campaign_failed spots unsettled verdicts" `Quick
      (fun () ->
        check_bool "pending verdict fails the campaign" true
          (Swarm.campaign_failed (mk_swarm_report "AA?A"));
        check_bool "settled verdicts pass" false
          (Swarm.campaign_failed (mk_swarm_report "ARGC"));
        check_bool "gave_up is settled, not failed" false
          (Swarm.campaign_failed (mk_swarm_report "GGGG")));
    Alcotest.test_case "real campaigns never leave a session unsettled" `Quick
      (fun () ->
        let r =
          Swarm.run ~mode:Swarm.Batched ~devices:16 ~epochs:2 ~seed:4
            ~faults:true ~loss_percent:25 ()
        in
        check_bool "no '?' even under heavy faults" false
          (Swarm.campaign_failed r));
    Alcotest.test_case "gateway reports render with a digest" `Quick (fun () ->
        let r =
          Gateway.run ~devices:8 ~slices:80 ~arrival_permille:2000 ~seed:2 ()
        in
        let s = Gateway.to_string r in
        check_bool "digest line present" true
          (String.length s > 0
          &&
          let lines = String.split_on_char '\n' s in
          List.exists
            (fun l -> String.length l > 12 && String.sub l 0 12 = "digest: sha1")
            lines));
  ]

(* --- Crypto charging is per domain --------------------------------------- *)

(* Run [f] while another domain hashes flat out.  Returns [f]'s result
   and whether the other domain's hashing really overlapped [f]: the
   process-wide counters then moved further than this domain's. *)
let with_background_hashing f =
  let stop = Atomic.make false and started = Atomic.make false in
  let hasher =
    Domain.spawn (fun () ->
        let block = Bytes.make 256 'x' in
        while not (Atomic.get stop) do
          ignore (Tytan_crypto.Sha1.digest block);
          ignore (Tytan_crypto.Sha256.digest block);
          Atomic.set started true
        done)
  in
  while not (Atomic.get started) do Domain.cpu_relax () done;
  let g0 = Tytan_crypto.Sha1.total_compressions ()
  and d0 = Tytan_crypto.Sha1.domain_compressions () in
  let r = Fun.protect ~finally:(fun () -> Atomic.set stop true; Domain.join hasher) f in
  let global = Tytan_crypto.Sha1.total_compressions () - g0
  and mine = Tytan_crypto.Sha1.domain_compressions () - d0 in
  (r, global > mine)

let ota_wave v =
  { Tytan_ota.Rollout.label = Printf.sprintf "clean-%d" v; version = v;
    image = Tytan_tasks.Task_lib.yielder ~count:(2 + v) () }

let run_rollout () =
  Tytan_ota.Rollout.run ~devices:6 ~canary:2 ~seed:4
    ~platform_key_of:(fun ~serial ->
      Tytan_crypto.Sha1.digest (Bytes.of_string ("test-platform-key:" ^ serial)))
    ~incumbent:(Tytan_tasks.Task_lib.counter ())
    [ ota_wave 1; ota_wave 2 ]

(* [run] must render the same whether or not another domain hashes
   meanwhile.  A crowded run can finish before the other domain is
   scheduled, so runs repeat until one really overlapped. *)
let check_crowded ~render run =
  let alone = render (run ()) in
  let rec go tries =
    let crowded, overlapped = with_background_hashing run in
    check_bool "byte-identical report" true (alone = render crowded);
    if not overlapped then
      if tries = 0 then Alcotest.fail "the other domain never hashed during a run"
      else go (tries - 1)
  in
  go 50

let charging_tests =
  [
    Alcotest.test_case "gateway report ignores another domain's hashing" `Quick
      (fun () ->
        check_crowded ~render:Gateway.to_string (fun () ->
            Gateway.run ~devices:24 ~slices:120 ~arrival_permille:3000 ~seed:7 ()));
    Alcotest.test_case "rollout report ignores another domain's hashing" `Quick
      (fun () -> check_crowded ~render:Tytan_ota.Rollout.to_string run_rollout);
  ]

let () =
  Alcotest.run "serve"
    [
      ("gateway", gateway_tests);
      ("determinism", determinism_tests);
      ("fuzz", fuzz_tests);
      ("link", link_tests);
      ("gating", gating_tests);
      ("charging", charging_tests);
    ]
