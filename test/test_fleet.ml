(* Fleet-scale swarm attestation: the differential harness proving the
   batched/cached verifier verdict-identical to N independent scalar
   sessions (including under injected faults), the incremental challenge
   policy semantically identical to the full sweep, unit tests for the
   aggregator's measurement cache — epoch scoping, forgery rejection,
   Merkle membership — a differential of the aggregator against the
   rebuild-per-seal reference (Ref_aggregator), and the headline cycle
   ratio. *)

open Tytan_core
open Tytan_netsim
open Tytan_provision
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Telemetry = Tytan_telemetry.Telemetry

(* --- Differential: batched ≡ scalar ---------------------------------------- *)

let check_differential ~devices ~epochs ~seed ~faults ~loss =
  let run mode =
    Swarm.run ~mode ~devices ~epochs ~seed ~faults ~loss_percent:loss ()
  in
  let s = run Swarm.Scalar in
  let b = run Swarm.Batched in
  let ctx = Printf.sprintf "devices=%d seed=%d faults=%b" devices seed faults in
  Alcotest.(check (list string))
    (ctx ^ ": per-device verdicts byte-identical")
    (Swarm.verdicts s) (Swarm.verdicts b);
  List.iter2
    (fun (es : Swarm.epoch_stats) (eb : Swarm.epoch_stats) ->
      Alcotest.(check int)
        (ctx ^ ": health-poll answers identical")
        es.Swarm.healthy_polls eb.Swarm.healthy_polls;
      Alcotest.(check int)
        (ctx ^ ": settle slices identical (same wire schedule)")
        es.Swarm.slices eb.Swarm.slices)
    s.Swarm.per_epoch b.Swarm.per_epoch;
  Alcotest.(check bool)
    (ctx ^ ": survival verdict identical")
    s.Swarm.survived b.Swarm.survived

let differential_tests =
  [
    Alcotest.test_case "clean fleets: random seeds and sizes" `Quick (fun () ->
        List.iter
          (fun (devices, seed) ->
            check_differential ~devices ~epochs:3 ~seed ~faults:false ~loss:10)
          [ (3, 1); (17, 2); (64, 5); (9, 42) ]);
    Alcotest.test_case "faulty fleets: device faults + hostile links" `Quick
      (fun () ->
        List.iter
          (fun (devices, seed) ->
            check_differential ~devices ~epochs:3 ~seed ~faults:true ~loss:15)
          [ (12, 3); (48, 7); (30, 11) ]);
    Alcotest.test_case "faulty campaigns really break devices" `Quick (fun () ->
        (* Guard against the differential passing vacuously: at this size
           the fault schedule must actually tamper or silence someone. *)
        let r =
          Swarm.run ~mode:Swarm.Batched ~devices:48 ~epochs:3 ~seed:7
            ~faults:true ~loss_percent:15 ()
        in
        Alcotest.(check bool)
          "some device was tampered or silenced" true
          (r.Swarm.tampered + r.Swarm.silenced > 0);
        let non_attested =
          List.fold_left
            (fun n (e : Swarm.epoch_stats) ->
              n + e.Swarm.refused + e.Swarm.gave_up)
            0 r.Swarm.per_epoch
        in
        Alcotest.(check bool) "some verdict is not Attested" true
          (non_attested > 0));
  ]

(* --- Soak: full sweep vs incremental policy --------------------------------- *)

(* Scalar and batched sweep the same wire schedule, so they must agree
   verdict by verdict and slice by slice.  The incremental policy carries
   healthy devices instead of re-challenging them, so its settle slices
   differ, but what it concludes must not: the semantic digest (verdicts
   with carried 'a' read as 'A', healthy polls, survival) must equal the
   sweep's.  20 seeds, all with reboot churn, alternating fault injection
   and link loss, so a device carried past a tamper, kill, hang or reboot
   would show up as a digest mismatch. *)
let soak_tests =
  [
    Alcotest.test_case "20-seed soak: sweep and incremental digests agree"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let faults = seed land 1 = 1 in
            let loss = if seed mod 3 = 0 then 12 else 0 in
            let run mode =
              Swarm.run ~mode ~devices:14 ~epochs:4 ~seed ~faults
                ~loss_percent:loss ~churn_permille:100 ()
            in
            let s = run Swarm.Scalar in
            let b = run Swarm.Batched in
            let i = run Swarm.Incremental in
            let ctx =
              Printf.sprintf "seed=%d faults=%b loss=%d" seed faults loss
            in
            Alcotest.(check (list string))
              (ctx ^ ": scalar/batched verdicts")
              (Swarm.verdicts s) (Swarm.verdicts b);
            Alcotest.(check (list int))
              (ctx ^ ": scalar/batched settle slices")
              (List.map (fun (e : Swarm.epoch_stats) -> e.Swarm.slices)
                 s.Swarm.per_epoch)
              (List.map (fun (e : Swarm.epoch_stats) -> e.Swarm.slices)
                 b.Swarm.per_epoch);
            Alcotest.(check string)
              (ctx ^ ": semantic digest scalar/batched")
              (Swarm.semantic_digest s)
              (Swarm.semantic_digest b);
            Alcotest.(check string)
              (ctx ^ ": semantic digest batched/incremental")
              (Swarm.semantic_digest b)
              (Swarm.semantic_digest i);
            Alcotest.(check bool)
              (ctx ^ ": incremental carried someone")
              true
              (List.exists
                 (fun (e : Swarm.epoch_stats) -> e.Swarm.carried > 0)
                 i.Swarm.per_epoch))
          (List.init 20 (fun i -> i + 1)));
  ]

(* --- Domain-parallel bit identity ------------------------------------------- *)

(* The report deliberately never mentions the domain count, so
   [Swarm.to_string] equality IS the bit-identity claim: a sharded run
   must render byte-for-byte what the sequential run renders — verdicts,
   roots, cycle totals, telemetry, digest line, everything.  Skipped on
   single-core hosts where spawning domains proves nothing. *)
let parallel_tests =
  let multicore = Domain.recommended_domain_count () > 1 in
  let identical ?(faults = false) ?(churn_permille = 0) ~mode ~seed () =
    let go domains =
      Swarm.to_string
        (Swarm.run ~mode ~devices:16 ~epochs:3 ~seed ~faults ~domains
           ~churn_permille ())
    in
    let sequential = go 1 in
    List.iter
      (fun domains ->
        Alcotest.(check string)
          (Printf.sprintf "%s seed=%d faults=%b churn=%d: %d domains"
             (Swarm.mode_label mode) seed faults churn_permille domains)
          sequential (go domains))
      [ 2; 4 ]
  in
  let guarded f () = if multicore then f () in
  [
    Alcotest.test_case "incremental report bit-identical across 1/2/4 domains"
      `Quick
      (guarded (fun () ->
           List.iter
             (fun (seed, faults) ->
               identical ~mode:Swarm.Incremental ~seed ~faults ())
             [ (2, false); (7, true); (13, false) ]));
    Alcotest.test_case "batched and scalar engines shard identically too"
      `Quick
      (guarded (fun () ->
           identical ~mode:Swarm.Batched ~seed:3 ();
           identical ~mode:Swarm.Batched ~seed:7 ~faults:true ();
           identical ~mode:Swarm.Scalar ~seed:3 ()));
    Alcotest.test_case "steady-state churn campaigns shard identically" `Quick
      (guarded (fun () ->
           identical ~mode:Swarm.Incremental ~seed:5 ~churn_permille:80 ();
           identical ~mode:Swarm.Incremental ~seed:9 ~faults:true
             ~churn_permille:40 ()));
  ]

(* --- Steady state ------------------------------------------------------------ *)

let steady_run ?(devices = 24) ?(epochs = 5) ?(seed = 5) ?(faults = false)
    ?(churn_permille = 50) () =
  Swarm.run ~mode:Swarm.Incremental ~devices ~epochs ~seed ~faults
    ~churn_permille ()

let steady_tests =
  [
    Alcotest.test_case "epoch 0 sweeps everyone, then carries the healthy"
      `Quick (fun () ->
        let r = steady_run () in
        (match r.Swarm.per_epoch with
        | e0 :: rest ->
            Alcotest.(check int) "epoch 0 challenges the whole fleet" 24
              e0.Swarm.challenged;
            Alcotest.(check int) "epoch 0 carries no one" 0 e0.Swarm.carried;
            List.iter
              (fun (e : Swarm.epoch_stats) ->
                Alcotest.(check int)
                  (Printf.sprintf "epoch %d: challenged + carried = fleet"
                     e.Swarm.epoch)
                  24
                  (e.Swarm.challenged + e.Swarm.carried);
                Alcotest.(check bool)
                  (Printf.sprintf "epoch %d carries most of the fleet"
                     e.Swarm.epoch)
                  true
                  (e.Swarm.carried > e.Swarm.challenged))
              rest
        | [] -> Alcotest.fail "no epochs");
        Alcotest.(check bool) "fleet survived" true r.Swarm.survived);
    Alcotest.test_case "a device is carried only on the heels of a good verdict"
      `Quick (fun () ->
        (* 'a' at epoch e means the verifier vouched without a wire
           exchange — legitimate only if epoch e-1 ended Attested or
           carried.  Checked under faults, where the temptation to carry
           a broken device is real. *)
        List.iter
          (fun (seed, faults) ->
            let r = steady_run ~seed ~faults ~epochs:6 () in
            let v = Array.of_list (Swarm.verdicts r) in
            for e = 1 to Array.length v - 1 do
              String.iteri
                (fun d c ->
                  if c = 'a' then
                    let prev = v.(e - 1).[d] in
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "seed=%d epoch %d device %d carried after '%c'" seed e
                         d prev)
                      true
                      (prev = 'A' || prev = 'a'))
                v.(e)
            done)
          [ (5, false); (7, true); (11, true) ]);
    Alcotest.test_case "quiet steady epochs have an empty delta" `Quick
      (fun () ->
        (* With no churn and no faults nothing changes identity after the
           sweep, so every post-sweep sparse delta must be empty — the
           O(changed) claim at changed = 0. *)
        let r = steady_run ~seed:3 ~churn_permille:0 () in
        List.iter
          (fun (e : Swarm.epoch_stats) ->
            if e.Swarm.epoch > 0 then
              Alcotest.(check int)
                (Printf.sprintf "epoch %d delta" e.Swarm.epoch)
                0 e.Swarm.delta_changed)
          r.Swarm.per_epoch);
    Alcotest.test_case "steady epochs are an order cheaper than the sweep"
      `Quick (fun () ->
        let r = steady_run ~devices:64 ~seed:1 ~churn_permille:10 () in
        match r.Swarm.per_epoch with
        | sweep :: rest when rest <> [] ->
            let worst_steady =
              List.fold_left
                (fun m (e : Swarm.epoch_stats) -> max m e.Swarm.verify_cycles)
                0 rest
            in
            if sweep.Swarm.verify_cycles < 10 * worst_steady then
              Alcotest.failf "sweep %d < 10x worst steady epoch %d"
                sweep.Swarm.verify_cycles worst_steady
        | _ -> Alcotest.fail "need a sweep and at least one steady epoch");
    Alcotest.test_case "the sweeping modes challenge everyone every epoch"
      `Quick (fun () ->
        (* The challenge policy is the mode: under the same churn and
           faults that make incremental mode carry most of the fleet,
           scalar and batched carry no one. *)
        List.iter
          (fun mode ->
            let r =
              Swarm.run ~mode ~devices:24 ~epochs:4 ~seed:5 ~faults:true
                ~churn_permille:50 ()
            in
            List.iter
              (fun (e : Swarm.epoch_stats) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s epoch %d challenges the fleet"
                     (Swarm.mode_label mode) e.Swarm.epoch)
                  24 e.Swarm.challenged)
              r.Swarm.per_epoch)
          [ Swarm.Scalar; Swarm.Batched ]);
  ]

(* --- The headline ratio ----------------------------------------------------- *)

let ratio_tests =
  [
    Alcotest.test_case "batched verification is >= 5x cheaper (N=256)" `Quick
      (fun () ->
        let run mode =
          Swarm.run ~mode ~devices:256 ~epochs:4 ~seed:1 ()
        in
        let s = run Swarm.Scalar in
        let b = run Swarm.Batched in
        Alcotest.(check (list string))
          "verdicts identical" (Swarm.verdicts s) (Swarm.verdicts b);
        let ratio =
          float_of_int s.Swarm.verifier_cycles
          /. float_of_int (max 1 b.Swarm.verifier_cycles)
        in
        if ratio < 5.0 then
          Alcotest.failf "expected >= 5x, got %.2fx (scalar %d, batched %d)"
            ratio s.Swarm.verifier_cycles b.Swarm.verifier_cycles;
        (* The cache must actually be doing the work: one miss per
           device per epoch, hits on every health poll. *)
        let hits, misses =
          List.fold_left
            (fun (h, m) (e : Swarm.epoch_stats) ->
              (h + e.Swarm.cache_hits, m + e.Swarm.cache_misses))
            (0, 0) b.Swarm.per_epoch
        in
        Alcotest.(check int) "one miss per device per epoch" (256 * 4) misses;
        Alcotest.(check int) "every health poll served from cache"
          (256 * 4 * b.Swarm.queries_per_epoch)
          hits);
  ]

(* --- Aggregator unit tests -------------------------------------------------- *)

let fw_id = Task_id.of_image (Bytes.of_string "aggregator-unit-test-firmware")

let test_ka ~serial =
  Crypto.Hmac.mac_string ~key:(Bytes.of_string "unit-master") ("ka/" ^ serial)

let genuine_report ~serial ~nonce =
  {
    Attestation.id = fw_id;
    nonce;
    mac = Attestation.expected_mac ~ka:(test_ka ~serial) ~id:fw_id ~nonce;
  }

(* The aggregator counts cache hits and misses only in its registry. *)
let make_aggregator ?shards () =
  let clock = Cycles.create () in
  let telemetry = Campaign.telemetry clock in
  (Aggregator.create ~ka_of:test_ka ~clock ~telemetry ?shards (), telemetry)

let swarm_count telemetry name =
  Telemetry.counter telemetry ~component:"swarm" name

let aggregator_tests =
  [
    Alcotest.test_case "cached verdict only served within its nonce epoch"
      `Quick (fun () ->
        let a, tel = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let n0 = Bytes.of_string "nonce-epoch-0" in
        let r0 = genuine_report ~serial:"s1" ~nonce:n0 in
        Alcotest.(check bool) "first check verifies" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n0 r0);
        Alcotest.(check int) "that was a miss" 1 (swarm_count tel "cache_misses");
        Alcotest.(check bool) "re-check is served from the cache" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n0 r0);
        Alcotest.(check int) "hit counted" 1 (swarm_count tel "cache_hits");
        Alcotest.(check int) "no second miss" 1 (swarm_count tel "cache_misses");
        Aggregator.flush a;
        Alcotest.(check bool) "query answers for the current epoch" true
          (Aggregator.query a ~serial:"s1" ~epoch:0);
        Alcotest.(check bool) "query refuses a different epoch" false
          (Aggregator.query a ~serial:"s1" ~epoch:1);
        Aggregator.begin_epoch a ~epoch:1;
        Alcotest.(check bool) "new epoch starts cold: nothing cached" false
          (Aggregator.query a ~serial:"s1" ~epoch:1);
        let n1 = Bytes.of_string "nonce-epoch-1" in
        Alcotest.(check bool) "replaying the old epoch's report fails" false
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n1 r0);
        let r1 = genuine_report ~serial:"s1" ~nonce:n1 in
        Alcotest.(check bool) "fresh report for the new nonce verifies" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce:n1 r1);
        Alcotest.(check int) "the key was only derived once" 1
          (Aggregator.key_derivations a));
    Alcotest.test_case "forged reports are rejected and never cached" `Quick
      (fun () ->
        let a, tel = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let nonce = Bytes.of_string "nonce-x" in
        let forged =
          { (genuine_report ~serial:"s1" ~nonce) with
            mac = Bytes.make 20 '\x55'
          }
        in
        Alcotest.(check bool) "forged mac rejected" false
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce forged);
        Alcotest.(check bool) "forgery re-checked, not served from cache" false
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce forged);
        Alcotest.(check int) "both were misses" 2
          (swarm_count tel "cache_misses");
        Aggregator.flush a;
        Alcotest.(check bool) "forged device never answers healthy" false
          (Aggregator.query a ~serial:"s1" ~epoch:0);
        let genuine = genuine_report ~serial:"s1" ~nonce in
        Alcotest.(check bool) "the genuine report still verifies" true
          (Aggregator.check_report a ~serial:"s1" ~expected:fw_id ~nonce genuine));
    Alcotest.test_case "sealed batch membership proofs verify" `Quick (fun () ->
        let a, _ = make_aggregator () in
        Aggregator.begin_epoch a ~epoch:0;
        let nonce = Bytes.of_string "batch-nonce" in
        for i = 0 to 12 do
          let serial = Printf.sprintf "s%02d" i in
          Alcotest.(check bool) "admitted" true
            (Aggregator.check_report a ~serial ~expected:fw_id ~nonce
               (genuine_report ~serial ~nonce))
        done;
        Aggregator.flush a;
        match Aggregator.epoch_deltas a with
        | [ d ] ->
            Alcotest.(check int) "stamped with the epoch" 0 d.Aggregator.at_epoch;
            Alcotest.(check int) "all 13 leaves sealed" 13
              (List.length d.Aggregator.changed);
            for i = 0 to 12 do
              let serial = Printf.sprintf "s%02d" i in
              match Aggregator.membership_proof a ~serial with
              | Some (leaf, proof) ->
                  Alcotest.(check bool)
                    (serial ^ " membership proof")
                    true
                    (Crypto.Merkle.verify ~root:d.Aggregator.new_root ~leaf proof)
              | None -> Alcotest.failf "%s has no membership proof" serial
            done
        | l -> Alcotest.failf "expected one seal, got %d" (List.length l));
    Alcotest.test_case "retained tree: carry, tombstone, membership, deltas"
      `Quick (fun () ->
        let a, _ = make_aggregator () in
        let attest ~serial ~nonce =
          Alcotest.(check bool) (serial ^ " admitted") true
            (Aggregator.check_report a ~serial ~expected:fw_id ~nonce
               (genuine_report ~serial ~nonce))
        in
        (* Epoch 0: the full sweep — everyone attests. *)
        Aggregator.begin_epoch a ~epoch:0;
        let n0 = Bytes.of_string "retain-nonce-0" in
        List.iter (fun serial -> attest ~serial ~nonce:n0) [ "s0"; "s1"; "s2" ];
        Aggregator.flush a;
        Alcotest.(check int) "three live leaves" 3 (Aggregator.live_leaves a);
        (match Aggregator.epoch_deltas a with
        | [ d ] ->
            Alcotest.(check int) "sweep delta at epoch 0" 0 d.Aggregator.at_epoch;
            Alcotest.(check int) "sweep delta covers the arrivals" 3
              (List.length d.Aggregator.changed);
            List.iter
              (fun (e : Aggregator.delta_entry) ->
                Alcotest.(check bool) (e.Aggregator.serial ^ " arrived") true
                  (e.Aggregator.before = None && e.Aggregator.after <> None))
              d.Aggregator.changed
        | l -> Alcotest.failf "expected one delta, got %d" (List.length l));
        (match Aggregator.membership_proof a ~serial:"s1" with
        | None -> Alcotest.fail "live device must have a membership proof"
        | Some (leaf, proof) ->
            let root =
              match Aggregator.epoch_deltas a with
              | [ d ] -> d.Aggregator.new_root
              | l -> Alcotest.failf "expected one seal, got %d" (List.length l)
            in
            Alcotest.(check bool) "proof verifies against the sealed root" true
              (Crypto.Merkle.verify ~root ~leaf proof));
        (* Epoch 1: s0 re-attests (same identity — delta stays empty),
           s1 is carried on liveness, s2 goes silent. *)
        Aggregator.begin_epoch a ~epoch:1;
        let n1 = Bytes.of_string "retain-nonce-1" in
        attest ~serial:"s0" ~nonce:n1;
        Alcotest.(check bool) "live device can be carried" true
          (Aggregator.carry a ~serial:"s1");
        Alcotest.(check bool) "unknown device cannot be carried" false
          (Aggregator.carry a ~serial:"ghost");
        Aggregator.flush a;
        Alcotest.(check bool) "re-attested device healthy" true
          (Aggregator.query a ~serial:"s0" ~epoch:1);
        Alcotest.(check bool) "carried device polls healthy" true
          (Aggregator.carried_healthy a ~serial:"s1");
        Alcotest.(check bool) "silent device tombstoned" false
          (Aggregator.carried_healthy a ~serial:"s2");
        Alcotest.(check int) "tombstone shrinks the live set" 2
          (Aggregator.live_leaves a);
        Alcotest.(check bool) "tombstoned device loses its proof" true
          (Aggregator.membership_proof a ~serial:"s2" = None);
        Alcotest.(check bool) "tombstoned device cannot be carried back" false
          (Aggregator.carry a ~serial:"s2");
        (match Aggregator.epoch_deltas a with
        | [ _; d1 ] -> (
            Alcotest.(check int) "delta stamped epoch 1" 1 d1.Aggregator.at_epoch;
            (* only s2's departure is an identity change — s0's fresh
               report re-sealed the same firmware id, s1 was carried *)
            match d1.Aggregator.changed with
            | [ e ] ->
                Alcotest.(check string) "the departure is s2" "s2"
                  e.Aggregator.serial;
                Alcotest.(check bool) "recorded as a tombstone" true
                  (e.Aggregator.before <> None && e.Aggregator.after = None)
            | l ->
                Alcotest.failf "expected exactly the departure, got %d entries"
                  (List.length l))
        | l -> Alcotest.failf "expected two deltas, got %d" (List.length l)));
  ]

(* --- Differential: Aggregator vs the rebuild-per-seal reference ------------ *)

type report_kind =
  | Genuine  (** MAC over the epoch nonce *)
  | Forged  (** garbage MAC *)
  | Wrong_nonce  (** genuine for last epoch's nonce, checked against this one *)
  | Second_session  (** genuine under a second nonce in the same epoch *)

type agg_op =
  | Check of int * report_kind * int  (* device, kind, firmware 0/1 *)
  | Query of int
  | Carry of int
  | Carried_healthy of int
  | Flush
  | Begin_epoch

let agg_devices = 6
let firmware = [| fw_id; Task_id.of_image (Bytes.of_string "aggregator-fw-b") |]

let agg_op_gen =
  QCheck.Gen.(
    let dev = int_bound (agg_devices - 1) in
    let kind =
      frequency
        [ (5, return Genuine); (2, return Forged); (1, return Wrong_nonce);
          (2, return Second_session) ]
    in
    frequency
      [
        (8, map3 (fun d k fw -> Check (d, k, fw)) dev kind
              (frequency [ (4, return 0); (1, return 1) ]));
        (2, map (fun d -> Query d) dev);
        (2, map (fun d -> Carry d) dev);
        (1, map (fun d -> Carried_healthy d) dev);
        (1, return Flush);
        (2, return Begin_epoch);
      ])

let agg_ops_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 80) agg_op_gen)
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Check (d, k, fw) ->
                 Printf.sprintf "check%d%s/fw%d" d
                   (match k with
                   | Genuine -> "" | Forged -> "!forged"
                   | Wrong_nonce -> "!stale" | Second_session -> "+2nd")
                   fw
             | Query d -> Printf.sprintf "query%d" d
             | Carry d -> Printf.sprintf "carry%d" d
             | Carried_healthy d -> Printf.sprintf "healthy%d" d
             | Flush -> "flush"
             | Begin_epoch -> "epoch")
           ops))

(* Replay one schedule against the aggregator and the reference.  Every
   answer must match; after every seal the sealed roots must match, and
   every live device's membership proof must verify against the
   reference root over the reference's payload.  With several shards a
   device checks on its pinned shard and both sides drain before
   anything that reads or writes the retained tree. *)
let replay_against_reference ~shards ops =
  let a, _ = make_aggregator ~shards () in
  let r = Ref_aggregator.create ~ka_of:test_ka ~shards in
  let serial d = Printf.sprintf "dev%d" d in
  let shard d = d * shards / agg_devices in
  let epoch = ref 0 in
  let epoch_nonce e = Bytes.of_string (Printf.sprintf "epoch-nonce-%d" e) in
  let same what x y =
    if x <> y then
      QCheck.Test.fail_reportf "%s: aggregator %b, reference %b" what x y
  in
  let drain () =
    Aggregator.drain a;
    Ref_aggregator.drain r
  in
  let check_seals () =
    let roots =
      List.map (fun (d : Aggregator.delta) -> d.Aggregator.new_root)
        (Aggregator.epoch_deltas a)
    in
    if roots <> Ref_aggregator.roots r then
      QCheck.Test.fail_reportf "sealed roots differ (%d vs %d seals)"
        (List.length roots) (List.length (Ref_aggregator.roots r));
    match List.rev roots with
    | [] -> ()
    | root :: _ ->
        for d = 0 to agg_devices - 1 do
          let serial = serial d in
          match
            (Aggregator.membership_proof a ~serial,
             Ref_aggregator.member_payload r ~serial)
          with
          | None, None -> ()
          | Some (leaf, proof), Some expected ->
              if not (Bytes.equal leaf expected
                      && Crypto.Merkle.verify ~root ~leaf proof) then
                QCheck.Test.fail_reportf "%s: membership proof rejected" serial
          | Some _, None | None, Some _ ->
              QCheck.Test.fail_reportf "%s: liveness differs" serial
        done
  in
  List.iter
    (fun op ->
      match op with
      | Check (d, kind, fw) ->
          let serial = serial d and expected = firmware.(fw) in
          let nonce =
            match kind with
            | Second_session -> Bytes.of_string (Printf.sprintf "second-%d" !epoch)
            | _ -> epoch_nonce !epoch
          in
          let report =
            let genuine ~nonce =
              {
                Attestation.id = expected;
                nonce;
                mac = Attestation.expected_mac ~ka:(test_ka ~serial) ~id:expected
                    ~nonce;
              }
            in
            match kind with
            | Genuine | Second_session -> genuine ~nonce
            | Forged -> { (genuine ~nonce) with mac = Bytes.make 20 '\x5a' }
            | Wrong_nonce -> genuine ~nonce:(epoch_nonce (!epoch - 1))
          in
          same ("check " ^ serial)
            (Aggregator.check_report ~shard:(shard d) a ~serial ~expected ~nonce
               report)
            (Ref_aggregator.check_report ~shard:(shard d) r ~serial ~expected
               ~nonce report)
      | Query d ->
          let serial = serial d in
          same ("query " ^ serial)
            (Aggregator.query ~shard:(shard d) a ~serial ~epoch:!epoch)
            (Ref_aggregator.query r ~serial ~epoch:!epoch)
      | Carry d ->
          drain ();
          let serial = serial d in
          same ("carry " ^ serial) (Aggregator.carry a ~serial)
            (Ref_aggregator.carry r ~serial)
      | Carried_healthy d ->
          drain ();
          let serial = serial d in
          same ("carried_healthy " ^ serial)
            (Aggregator.carried_healthy a ~serial)
            (Ref_aggregator.carried_healthy r ~serial)
      | Flush ->
          drain ();
          Aggregator.flush a;
          Ref_aggregator.flush r;
          check_seals ()
      | Begin_epoch ->
          drain ();
          incr epoch;
          Aggregator.begin_epoch a ~epoch:!epoch;
          Ref_aggregator.begin_epoch r ~epoch:!epoch;
          check_seals ())
    ops;
  drain ();
  Aggregator.flush a;
  Ref_aggregator.flush r;
  check_seals ();
  true

let reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"one shard: verdicts, polls and roots match the reference"
         agg_ops_arb (replay_against_reference ~shards:1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"three shards + drain: verdicts, polls and roots match"
         agg_ops_arb (replay_against_reference ~shards:3));
  ]

(* --- Firmware rollout: fleet-wide flow vet --------------------------------- *)

module Tasks = Tytan_tasks.Task_lib
module Task_id = Tytan_core.Task_id

let rollout_run image =
  Swarm.run ~mode:Swarm.Batched ~devices:8 ~epochs:2 ~seed:3 ~rollout:image ()

let rollout_tests =
  [
    Alcotest.test_case "leaky image refused fleet-wide" `Quick (fun () ->
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        let r = rollout_run leaky in
        match r.Swarm.rollout with
        | Some { Gate.accepted; refusal; vet_cycles } ->
            Alcotest.(check bool) "refused" false accepted;
            Alcotest.(check bool) "vet charged" true (vet_cycles > 0);
            let msg = Option.value refusal ~default:"" in
            Alcotest.(check bool)
              "refusal names the secret flow" true
              (let has sub =
                 let n = String.length sub in
                 let rec go i =
                   i + n <= String.length msg
                   && (String.sub msg i n = sub || go (i + 1))
                 in
                 go 0
               in
               has "flow" && has "IPC payload");
            (* the fleet stays on — and attests — the incumbent firmware *)
            let incumbent =
              Swarm.run ~mode:Swarm.Batched ~devices:8 ~epochs:2 ~seed:3 ()
            in
            Alcotest.(check (list string))
              "campaign identical to one with no rollout at all"
              (Swarm.verdicts incumbent) (Swarm.verdicts r)
        | None -> Alcotest.fail "expected a rollout outcome in the report");
    Alcotest.test_case "clean image adopted fleet-wide" `Quick (fun () ->
        let clean = Tasks.counter () in
        let r = rollout_run clean in
        match r.Swarm.rollout with
        | Some { Gate.accepted; refusal; _ } ->
            Alcotest.(check bool) "adopted" true accepted;
            Alcotest.(check bool) "no refusal" true (refusal = None);
            Alcotest.(check bool) "fleet survived on new firmware" true
              r.Swarm.survived;
            (* adopting new firmware changes what the fleet measures, so
               the sealed roots must differ from the incumbent campaign *)
            let incumbent =
              Swarm.run ~mode:Swarm.Batched ~devices:8 ~epochs:2 ~seed:3 ()
            in
            Alcotest.(check bool) "different measurement roots" true
              (List.exists2
                 (fun (a : Swarm.epoch_stats) (b : Swarm.epoch_stats) ->
                   a.Swarm.root_hex <> b.Swarm.root_hex)
                 incumbent.Swarm.per_epoch r.Swarm.per_epoch)
        | None -> Alcotest.fail "expected a rollout outcome in the report");
    Alcotest.test_case "rollout verdict identical across engines" `Quick
      (fun () ->
        let leaky =
          Tasks.key_leaker
            ~receiver:(Task_id.of_image (Bytes.of_string "exfil-sink"))
            ()
        in
        let run mode =
          Swarm.run ~mode ~devices:5 ~epochs:2 ~seed:9 ~rollout:leaky ()
        in
        let s = run Swarm.Scalar and b = run Swarm.Batched in
        Alcotest.(check bool) "same acceptance" true
          (match (s.Swarm.rollout, b.Swarm.rollout) with
          | Some a, Some b ->
              a.Gate.accepted = b.Gate.accepted
              && a.Gate.refusal = b.Gate.refusal
              && a.Gate.vet_cycles = b.Gate.vet_cycles
          | _ -> false);
        Alcotest.(check (list string))
          "verdicts still byte-identical" (Swarm.verdicts s)
          (Swarm.verdicts b));
  ]

let () =
  Alcotest.run "fleet"
    [
      ("differential", differential_tests);
      ("soak", soak_tests);
      ("parallel", parallel_tests);
      ("steady", steady_tests);
      ("ratio", ratio_tests);
      ("aggregator", aggregator_tests);
      ("reference", reference_tests);
      ("rollout", rollout_tests);
    ]
