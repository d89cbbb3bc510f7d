open Tytan_core
open Tytan_netsim
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Devices = Tytan_machine.Devices
module Telf = Tytan_telf.Telf
module Fault_plan = Tytan_fault.Fault_plan
module Telemetry = Tytan_telemetry.Telemetry
module Obs = Tytan_obs.Obs

type wave_spec = {
  label : string;
  version : int;
  image : Telf.t;
}

type wave_stats = {
  wave : int;
  label : string;
  version : int;
  offered : int;
  staged : int;  (* devices that accepted the offer and buffered chunks *)
  applied : int;
  refused_rollback : int;
  refused_vet : int;
  refused_auth : int;
  refused_digest : int;
  crashed : int;
  gave_up : int;
  attest_ok : int;
  attest_failed : int;
  verdicts : string;
      (* one char per device: [A]pplied, [R]ollback-refused, [V]et-refused,
         [M]ac-refused, [D]igest-refused, crashed [X], [G]ave up,
         [Q]uarantined (skipped), [.] not offered, [?] pending *)
  promoted : bool;
  aborted : bool;
  abort_reason : string option;
  slices : int;
  newly_quarantined : string list;
}

type report = {
  devices : int;
  canary : int;
  seed : int;
  faults : bool;
  loss_percent : int;
  waves : wave_stats list;
  counters : int list;  (* final per-device monotonic counter values *)
  reset_attempts : int;
  controller_cycles : int;
  device_cycles : int;
  update_cycles : int;  (* device cycles spent in OTA frame handling *)
  rollback_refusal_cycles : int;  (* cost of the last rollback refusal *)
  frames_sent : int;
  frames_dropped : int;
  frames_delivered : int;
  truncated_frames : int;
  quarantined : string list;
  telemetry : (string * int) list;
  survived : bool;
}

(* The OTA chaos schedule: truncated update frames (the decoder refuses,
   the sender's retransmissions recover), counter-reset attempts (the
   hardware refuses and counts), and canaries crashing mid-swap (the
   gate failure a staged rollout must turn into an abort) — one per
   wave, seeded like every other campaign. *)
type fault =
  | Frame_truncate of { count : int }
  | Counter_reset
  | Canary_crash

let fault_events ~seed ~devices ~waves =
  let prng = Fault_plan.Prng.create (seed lxor 0x07A7) in
  List.init waves (fun at ->
      let device = Fault_plan.Prng.int prng devices in
      let fault =
        match Fault_plan.Prng.int prng 5 with
        | 0 | 1 -> Frame_truncate { count = 1 + Fault_plan.Prng.int prng 2 }
        | 2 | 3 -> Counter_reset
        | _ -> Canary_crash
      in
      { Campaign.at; device; fault })

(* ---- devices ---------------------------------------------------------- *)

type dev = {
  index : int;
  serial : string;
  installer : Installer.t;
  link : Link.t;
  ka : bytes;  (* controller-side copy of the device's Ka *)
  mutable quarantined : bool;
  mutable truncate_left : int;
}

(* ---- one OTA transfer session (controller side) ----------------------- *)

let retry_timeout = 6
let session_attempts = 8
let window = 4
let chunk_size = 128

type sess = {
  dev : dev;
  seq : int;
  offer : bytes;  (* encoded UpdateOffer, ready to (re)send *)
  payload : bytes;  (* encoded TELF *)
  mutable state : [ `Offer | `Stream | `Done of char ];
  mutable opened : bool;  (* the device acked the offer: transfer staged *)
  mutable next_needed : int;
  mutable cursor : int;
  mutable dup_acks : int;
  mutable attempts : int;
  mutable last_sent : int;
  mutable counter_after : int;
}

let send_chunks s ~at =
  let size = Bytes.length s.payload in
  let limit = min size (s.next_needed + (window * chunk_size)) in
  while s.cursor < limit do
    let len = min chunk_size (size - s.cursor) in
    Link.send s.dev.link ~from:Link.Remote ~at
      (Protocol.encode
         (Protocol.UpdateChunk
            {
              seq = s.seq;
              offset = s.cursor;
              data = Bytes.sub s.payload s.cursor len;
            }));
    s.cursor <- s.cursor + len;
    s.last_sent <- at
  done

let controller_poll s ~at =
  match s.state with
  | `Done _ -> ()
  | `Offer ->
      if s.last_sent < 0 || at - s.last_sent >= retry_timeout then begin
        if s.attempts >= session_attempts then s.state <- `Done '?'
        else begin
          s.attempts <- s.attempts + 1;
          Link.send s.dev.link ~from:Link.Remote ~at s.offer;
          s.last_sent <- at
        end
      end
  | `Stream ->
      if at - s.last_sent >= retry_timeout then begin
        (* Stalled: go back to the last cumulative ack and resend. *)
        if s.attempts >= session_attempts then s.state <- `Done '?'
        else begin
          s.attempts <- s.attempts + 1;
          s.cursor <- s.next_needed;
          send_chunks s ~at
        end
      end
      else send_chunks s ~at

let controller_on_frame s ~at frame =
  match Protocol.decode frame with
  | Error _ -> ()
  | Ok (Protocol.UpdateAck { seq; status; arg }) when seq = s.seq -> (
      match status with
      | Protocol.Ota_ready ->
          s.opened <- true;
          if s.state = `Offer then begin
            s.state <- `Stream;
            s.next_needed <- arg;
            s.cursor <- arg;
            s.attempts <- 0;
            s.last_sent <- at
          end
      | Protocol.Ota_need ->
          if arg > s.next_needed then begin
            s.next_needed <- arg;
            s.dup_acks <- 0;
            s.attempts <- 0;
            s.last_sent <- at
          end
          else begin
            (* Go-back-N duplicate ack: a hole at [arg].  Two in a row
               rewind the cursor without waiting for the stall timer. *)
            s.dup_acks <- s.dup_acks + 1;
            if s.dup_acks >= 2 then begin
              s.cursor <- arg;
              s.dup_acks <- 0
            end
          end
      | Protocol.Ota_applied ->
          s.counter_after <- arg;
          s.state <- `Done 'A'
      | Protocol.Ota_refused_rollback ->
          s.counter_after <- arg;
          s.state <- `Done 'R'
      | Protocol.Ota_refused_vet -> s.state <- `Done 'V'
      | Protocol.Ota_refused_auth -> s.state <- `Done 'M'
      | Protocol.Ota_refused_digest -> s.state <- `Done 'D'
      | Protocol.Ota_refused_crash -> s.state <- `Done 'X')
  | Ok _ -> ()

(* Device side of a slice: deliver inbound frames (after any armed
   truncation fault bites them), let the installer answer. *)
let device_step (d : dev) ~at ~truncated =
  List.iter
    (fun frame ->
      let frame =
        if d.truncate_left > 0 && Bytes.length frame > 1 then begin
          d.truncate_left <- d.truncate_left - 1;
          incr truncated;
          Bytes.sub frame 0 (Bytes.length frame / 2)
        end
        else frame
      in
      List.iter
        (fun reply ->
          Link.send d.link ~from:Link.Device ~at (Protocol.encode reply))
        (Installer.on_frame d.installer frame))
    (Link.deliver d.link ~to_:Link.Device ~at)

(* ---- post-swap attestation (static + CFA) ----------------------------- *)

let attest_gate ~controller_clock ~wave (cohort : dev list) ~expected ~truncated
    =
  let backoff = Verifier.default_backoff in
  let slice_cap = Campaign.settle_cap backoff in
  let genesis = Attestation.cf_genesis ~id:expected in
  let sessions =
    List.map
      (fun d ->
        let static =
          Verifier.create ~ka:d.ka ~expected ~backoff ~refusals_to_settle:2
            ~session:(Printf.sprintf "%s/w%d/s" d.serial wave)
            ()
        in
        let cfa =
          Verifier.create ~ka:d.ka ~expected ~backoff ~refusals_to_settle:2
            ~cfa:(Campaign.quiescent ~genesis)
            ~session:(Printf.sprintf "%s/w%d/c" d.serial wave)
            ()
        in
        (d, [ static; cfa ]))
      cohort
  in
  let all_settled () =
    List.for_all
      (fun (_, vs) ->
        List.for_all (fun v -> Verifier.outcome v <> Verifier.Pending) vs)
      sessions
  in
  let slice = ref 0 in
  while (not (all_settled ())) && !slice <= slice_cap do
    let at = !slice in
    List.iter (fun d -> device_step d ~at ~truncated) cohort;
    List.iter
      (fun (d, vs) ->
        (* Both sessions share the device's link: drain once, fan every
           frame out to both (each ignores the other's sequences). *)
        let frames = Link.deliver d.link ~to_:Link.Remote ~at in
        List.iter
          (fun v ->
            List.iter
              (fun frame ->
                Cost_model.charged controller_clock (fun () -> Verifier.on_frame v frame))
              frames;
            match Verifier.poll v ~at with
            | Some frame -> Link.send d.link ~from:Link.Remote ~at frame
            | None -> ())
          vs)
      sessions;
    incr slice
  done;
  List.iter (fun (_, vs) -> List.iter (Campaign.concede ~cap:slice_cap) vs) sessions;
  (* A device passes iff both its sessions attested. *)
  List.map
    (fun (d, vs) ->
      (d, List.for_all (fun v -> Verifier.outcome v = Verifier.Attested) vs))
    sessions

(* ---- the campaign ----------------------------------------------------- *)

let run ~devices ~canary ~seed ?(faults = false) ?(loss_percent = 10) ?obs
    ~platform_key_of ~incumbent (waves : wave_spec list) =
  if devices <= 0 then invalid_arg "Rollout.run: devices must be positive";
  if canary <= 0 || canary > devices then
    invalid_arg "Rollout.run: canary must be in 1..devices";
  if waves = [] then invalid_arg "Rollout.run: no waves";
  List.iter
    (fun (w : wave_spec) ->
      if w.version <= 0 then invalid_arg "Rollout.run: versions start at 1")
    waves;
  let controller_clock = Cycles.create () in
  let device_clock = Cycles.create () in
  let telemetry = Campaign.telemetry controller_clock in
  let tally name n =
    for _ = 1 to n do
      Telemetry.incr telemetry ~component:"ota" name
    done
  in
  (* The campaign's global slice offset: per-phase loops restart their
     local clock at 0, so flight-recorder timestamps add this base. *)
  let obs_at = ref 0 in
  let observe = Campaign.observe obs in
  let terminal_event ~serial ~counter = function
    | 'A' -> Some (Obs.Event.Swap_applied { serial; counter })
    | 'R' -> Some (Obs.Event.Update_refused { serial; reason = "rollback" })
    | 'V' -> Some (Obs.Event.Update_refused { serial; reason = "vet" })
    | 'M' -> Some (Obs.Event.Update_refused { serial; reason = "auth" })
    | 'D' -> Some (Obs.Event.Update_refused { serial; reason = "digest" })
    | 'X' -> Some (Obs.Event.Update_refused { serial; reason = "crash" })
    | 'G' -> Some (Obs.Event.Update_refused { serial; reason = "unreachable" })
    | _ -> None
  in
  let incumbent_id = Task_id.of_image incumbent.Telf.image in
  let fleet =
    Array.init devices (fun i ->
        let serial = Campaign.serial_of i in
        let link = Campaign.link ~seed ~salt:29 ~faults ~loss_percent i in
        let platform_key = platform_key_of ~serial in
        (* Device-side boot-time key derivation, charged to the device;
           the controller derives its copy from the registry side. *)
        let device_ka =
          Cost_model.charged device_clock (fun () -> Attestation.derive_ka ~platform_key)
        in
        let ka =
          Cost_model.charged controller_clock (fun () ->
              Attestation.derive_ka ~platform_key)
        in
        let counter =
          Devices.Monotonic_counter.create device_clock
            ~name:(serial ^ "/ctr") ~base:0xF000_6000
            ~read_cost:Cost_model.counter_read
            ~increment_cost:Cost_model.counter_increment ()
        in
        let installer =
          Installer.create ~serial ~ka:device_ka ~clock:device_clock ~counter
            ~loaded:incumbent_id ()
        in
        { index = i; serial; installer; link; ka; quarantined = false;
          truncate_left = 0 })
  in
  let plan =
    if faults then fault_events ~seed ~devices ~waves:(List.length waves)
    else []
  in
  let truncated = ref 0 in
  let survived = ref true in
  let stats = ref [] in
  List.iteri
    (fun wave_idx (w : wave_spec) ->
      let wave_corr = Printf.sprintf "ota/wave-%d" wave_idx in
      let dev_corr serial = Printf.sprintf "ota/%s/w%d" serial wave_idx in
      Campaign.mint obs wave_corr;
      observe ~corr:wave_corr ~at:!obs_at
        (Obs.Event.Wave_opened
           { wave = wave_idx; label = w.label; version = w.version });
      (* Re-admit last wave's crash victims (they rebooted into the
         incumbent); quarantine decisions stand. *)
      Array.iter (fun d -> Installer.clear_crash d.installer) fleet;
      List.iter
        (fun { Campaign.at; device; fault } ->
          if at = wave_idx then
            let d = fleet.(device) in
            match fault with
            | Frame_truncate { count } ->
                d.truncate_left <- d.truncate_left + count
            | Counter_reset -> Installer.attempt_counter_reset d.installer
            | Canary_crash -> Installer.arm_crash d.installer)
        plan;
      let payload = Telf.encode w.image in
      let size = Bytes.length payload in
      let digest = Crypto.Sha1.digest payload in
      let id = Task_id.of_image w.image.Telf.image in
      let eligible =
        Array.to_list fleet |> List.filter (fun d -> not d.quarantined)
      in
      let canaries = List.filteri (fun i _ -> i < canary) eligible in
      let rest = List.filteri (fun i _ -> i >= canary) eligible in
      let verdict = Array.make devices '.' in
      Array.iter
        (fun d -> if d.quarantined then verdict.(d.index) <- 'Q')
        fleet;
      let slices = ref 0 in
      let run_phase cohort =
        let base = !obs_at in
        let sessions =
          List.map
            (fun d ->
              let seq = (wave_idx * 10_000) + d.index in
              let mac =
                Cost_model.charged controller_clock (fun () ->
                    Attestation.update_mac ~ka:d.ka ~id ~version:w.version
                      ~size ~digest)
              in
              let offer =
                Protocol.encode
                  (Protocol.UpdateOffer
                     { seq; id; version = w.version; size; digest; mac })
              in
              Campaign.mint obs ~parent:wave_corr (dev_corr d.serial);
              observe ~corr:(dev_corr d.serial) ~at:base
                (Obs.Event.Offer_sent
                   { serial = d.serial; version = w.version });
              {
                dev = d;
                seq;
                offer;
                payload;
                state = `Offer;
                opened = false;
                next_needed = 0;
                cursor = 0;
                dup_acks = 0;
                attempts = 0;
                last_sent = -1000;
                counter_after = -1;
              })
            cohort
        in
        let cap =
          64 + (8 * ((size / chunk_size) + 1))
          + (retry_timeout * session_attempts * 2)
        in
        let all_done () =
          List.for_all (fun s -> match s.state with `Done _ -> true | _ -> false)
            sessions
        in
        let slice = ref 0 in
        while (not (all_done ())) && !slice <= cap do
          let at = !slice in
          List.iter (fun s -> device_step s.dev ~at ~truncated) sessions;
          List.iter
            (fun s ->
              List.iter
                (fun frame ->
                  let was_opened = s.opened in
                  let before = s.state in
                  controller_on_frame s ~at frame;
                  if obs <> None then begin
                    let corr = dev_corr s.dev.serial in
                    if (not was_opened) && s.opened then
                      observe ~corr ~at:(base + at)
                        (Obs.Event.Transfer_staged { serial = s.dev.serial });
                    match s.state with
                    | `Done c when before <> s.state ->
                        Option.iter
                          (observe ~corr ~at:(base + at))
                          (terminal_event ~serial:s.dev.serial
                             ~counter:s.counter_after c)
                    | _ -> ()
                  end)
                (Link.deliver s.dev.link ~to_:Link.Remote ~at))
            sessions;
          List.iter (fun s -> controller_poll s ~at) sessions;
          incr slice
        done;
        slices := !slices + !slice;
        (* Anything still unsettled has exhausted its schedule. *)
        List.iter
          (fun s ->
            match s.state with
            | `Done '?' | `Offer | `Stream ->
                let c = if Installer.crashed s.dev.installer then 'X' else 'G' in
                s.state <- `Done c;
                Option.iter
                  (observe ~corr:(dev_corr s.dev.serial) ~at:(base + !slice))
                  (terminal_event ~serial:s.dev.serial ~counter:s.counter_after c)
            | `Done _ -> ())
          sessions;
        obs_at := base + !slice;
        List.iter
          (fun s ->
            match s.state with
            | `Done c -> verdict.(s.dev.index) <- c
            | _ -> verdict.(s.dev.index) <- '?')
          sessions;
        sessions
      in
      (* Phase A: the canary cohort. *)
      let canary_sessions = run_phase canaries in
      let canary_applied =
        List.for_all (fun s -> s.state = `Done 'A') canary_sessions
      in
      let attest_results =
        if canary_applied then
          attest_gate ~controller_clock ~wave:wave_idx canaries ~expected:id
            ~truncated
        else []
      in
      let attest_ok_canaries =
        List.length (List.filter snd attest_results)
      in
      let gate_passed =
        canary_applied && List.for_all snd attest_results
      in
      let abort_reason =
        if gate_passed then None
        else if not canary_applied then
          List.find_opt (fun s -> s.state <> `Done 'A') canary_sessions
          |> Option.map (fun s ->
                 Printf.sprintf "canary %s: %s" s.dev.serial
                   (match s.state with
                   | `Done 'R' -> "rollback-refused"
                   | `Done 'V' -> "vet-refused"
                   | `Done 'M' -> "auth-refused"
                   | `Done 'D' -> "digest-refused"
                   | `Done 'X' -> "crashed mid-swap"
                   | `Done 'G' -> "unreachable"
                   | _ -> "pending"))
        else
          List.find_opt (fun (_, ok) -> not ok) attest_results
          |> Option.map (fun ((d : dev), _) ->
                 Printf.sprintf "canary %s: post-swap attestation failed"
                   d.serial)
      in
      (* Phase B: promotion — or fleet-wide abort. *)
      let fleet_sessions = if gate_passed then run_phase rest else [] in
      let all_sessions = canary_sessions @ fleet_sessions in
      (* The circuit breaker trips on the first strike: every device that
         was offered this wave and did not end it running the offered
         image is quarantined — out of the fleet until an operator
         re-provisions it. *)
      let newly_quarantined = ref [] in
      let quarantine d =
        if not d.quarantined then begin
          d.quarantined <- true;
          newly_quarantined := d.serial :: !newly_quarantined
        end
      in
      List.iter (fun s -> if s.state <> `Done 'A' then quarantine s.dev) all_sessions;
      (* Canaries that applied a wave the gate then failed are pulled
         too: they run an image the fleet aborted. *)
      if not gate_passed then List.iter (fun s -> quarantine s.dev) canary_sessions;
      let count c =
        Array.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 verdict
      in
      let verdicts = String.init devices (Array.get verdict) in
      if
        (not faults)
        && (count 'G' > 0 || count 'X' > 0 || String.contains verdicts '?')
      then survived := false;
      if gate_passed then
        observe ~corr:wave_corr ~at:!obs_at
          (Obs.Event.Wave_promoted { wave = wave_idx })
      else
        observe ~corr:wave_corr ~at:!obs_at
          (Obs.Event.Wave_aborted
             {
               wave = wave_idx;
               reason = Option.value abort_reason ~default:"canary gate failed";
             });
      List.iter
        (fun serial ->
          observe ~corr:(dev_corr serial) ~at:!obs_at
            (Obs.Event.Quarantined { serial }))
        (List.sort compare !newly_quarantined);
      tally "offered" (List.length all_sessions);
      tally "staged" (List.length (List.filter (fun s -> s.opened) all_sessions));
      tally "applied" (count 'A');
      tally "refused_rollback" (count 'R');
      tally "refused_vet" (count 'V');
      tally "refused_auth" (count 'M');
      tally "refused_digest" (count 'D');
      tally "crashed" (count 'X');
      tally "gave_up" (count 'G');
      tally (if gate_passed then "waves_promoted" else "waves_aborted") 1;
      tally "quarantines" (List.length !newly_quarantined);
      stats :=
        {
          wave = wave_idx;
          label = w.label;
          version = w.version;
          offered = List.length all_sessions;
          staged = List.length (List.filter (fun s -> s.opened) all_sessions);
          applied = count 'A';
          refused_rollback = count 'R';
          refused_vet = count 'V';
          refused_auth = count 'M';
          refused_digest = count 'D';
          crashed = count 'X';
          gave_up = count 'G';
          attest_ok = attest_ok_canaries;
          attest_failed =
            (if canary_applied then
               List.length attest_results - attest_ok_canaries
             else 0);
          verdicts;
          promoted = gate_passed;
          aborted = not gate_passed;
          abort_reason;
          slices = !slices;
          newly_quarantined = List.sort compare !newly_quarantined;
        }
        :: !stats)
    waves;
  let sum f = Array.fold_left (fun n d -> n + f d) 0 fleet in
  let frames_sent, frames_dropped, frames_delivered =
    Campaign.frame_totals (Array.map (fun d -> d.link) fleet)
  in
  {
    devices;
    canary;
    seed;
    faults;
    loss_percent;
    waves = List.rev !stats;
    counters =
      Array.to_list (Array.map (fun d -> Installer.counter_value d.installer) fleet);
    reset_attempts = sum (fun d -> Installer.reset_attempts d.installer);
    controller_cycles = Cycles.now controller_clock;
    device_cycles = Cycles.now device_clock;
    update_cycles = sum (fun d -> Installer.update_cycles d.installer);
    rollback_refusal_cycles =
      Array.fold_left
        (fun acc d -> max acc (Installer.last_refusal_cycles d.installer))
        0 fleet;
    frames_sent;
    frames_dropped;
    frames_delivered;
    truncated_frames = !truncated;
    quarantined =
      Array.to_list fleet
      |> List.filter (fun d -> d.quarantined)
      |> List.map (fun d -> d.serial)
      |> List.sort compare;
    telemetry = Campaign.counters telemetry;
    survived = !survived;
  }

(* ---- rendering -------------------------------------------------------- *)

let body r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "ota campaign: devices=%d canary=%d waves=%d seed=%d faults=%s loss=%d%%\n"
    r.devices r.canary (List.length r.waves) r.seed
    (if r.faults then "on" else "off")
    r.loss_percent;
  List.iter
    (fun w ->
      add
        "wave %d [%s v%d]: %s offered=%d staged=%d applied=%d rollback=%d vet=%d auth=%d digest=%d crashed=%d gave_up=%d attest=%d/%d slices=%d\n"
        w.wave w.label w.version
        (if w.promoted then "PROMOTED" else "ABORTED")
        w.offered w.staged w.applied w.refused_rollback w.refused_vet
        w.refused_auth w.refused_digest w.crashed w.gave_up w.attest_ok
        (w.attest_ok + w.attest_failed)
        w.slices;
      (match w.abort_reason with
      | Some reason -> add "  abort: %s\n" reason
      | None -> ());
      if w.newly_quarantined <> [] then
        add "  quarantined: %s\n" (String.concat " " w.newly_quarantined);
      add "  verdicts=sha1:%s\n" (Campaign.sha1_hex w.verdicts))
    r.waves;
  let cmin = List.fold_left min max_int r.counters in
  let cmax = List.fold_left max 0 r.counters in
  add "counters: min=%d max=%d advanced=%d/%d reset_attempts=%d\n" cmin cmax
    (List.length (List.filter (fun c -> c > 0) r.counters))
    r.devices r.reset_attempts;
  add "controller_cycles=%d device_cycles=%d update_cycles=%d\n"
    r.controller_cycles r.device_cycles r.update_cycles;
  add "rollback_refusal_cycles=%d\n" r.rollback_refusal_cycles;
  add "frames: sent=%d dropped=%d delivered=%d truncated=%d\n" r.frames_sent
    r.frames_dropped r.frames_delivered r.truncated_frames;
  add "quarantined: [%s]\n" (String.concat " " r.quarantined);
  List.iter (fun (k, v) -> add "  %s=%d\n" k v) r.telemetry;
  add "survived: %s\n" (if r.survived then "yes" else "no");
  Buffer.contents b

let to_string = Campaign.to_string body
let equal = Campaign.equal body

let verdicts r = List.map (fun w -> w.verdicts) r.waves

let campaign_failed r =
  List.exists (fun w -> String.contains w.verdicts '?') r.waves
