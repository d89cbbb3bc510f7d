open Tytan_core
open Tytan_netsim
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Fault_plan = Tytan_fault.Fault_plan
module Telemetry = Tytan_telemetry.Telemetry
module Registry = Tytan_provision.Registry
module Fleet = Tytan_provision.Fleet
module Obs = Tytan_obs.Obs

type config = {
  max_pending : int;
  bucket_capacity : int;
  bucket_refill_slices : int;
  store_capacity : int;
  deadline_slices : int;
}

let default_config =
  {
    max_pending = 64;
    bucket_capacity = 4;
    bucket_refill_slices = 16;
    store_capacity = 512;
    deadline_slices = 96;
  }

let max_inflight = 128
let max_attempts = 6
let backoff = Verifier.default_backoff
let breaker_threshold = 3
let quarantine_slices = 256
let epoch_slices = 64

type refusal =
  | Busy
  | Rate_limited
  | Quarantined

let refusal_label = function
  | Busy -> "busy"
  | Rate_limited -> "rate-limited"
  | Quarantined -> "quarantined"

type admission =
  | Admitted
  | Shed of refusal

type session_kind =
  | Static
  | Batched
  | Cfa

type fault =
  | Burst_loss of { duration : int }
  | Device_stall of { duration : int }
  | Late_reply of {
      extra : int;
      duration : int;
    }

let fault_label = function
  | Burst_loss _ -> "burst-loss"
  | Device_stall _ -> "device-stall"
  | Late_reply _ -> "late-reply"

(* Same lightweight prover as [Swarm]: the protocol can only observe a
   device's uplink, key and loaded identity, so that is all we model —
   plus the stall/late windows the gateway fault kinds drive. *)
type prover = {
  serial : string;
  link : Link.t;
  ka : bytes;
  id : Task_id.t;
  mutable stall_until : int;
  mutable late_until : int;
  mutable late_extra : int;
}

(* Gateway-side per-device state, LRU-bounded: the cached Ka, the token
   bucket and the circuit breaker.  Evicting an entry forgets all three
   — re-admission re-derives the key (and re-charges it). *)
type dev_state = {
  mutable ka : bytes;
  mutable tokens : int;
  mutable refill_at : int;
  mutable streak : int;
  mutable quarantined_until : int;
  mutable last_used : int;
}

type session = {
  s_serial : string;
  s_device : int;
  s_kind : session_kind;
  s_corr : string;  (* correlation id in the flight recorder *)
  verifier : Verifier.t;
  admitted_at : int;
  mutable started_at : int;  (* -1 while still queued *)
}

type t = {
  cfg : config;
  seed : int;
  faults : bool;
  loss_percent : int;
  registry : Registry.t;
  fw_id : Task_id.t;
  genesis : bytes Lazy.t;  (* empty CFA log head for fw_id, forced at create *)
  provers : prover array;
  store : (string, dev_state) Hashtbl.t;
  by_seq : (string * int, session) Hashtbl.t;  (* live-session demux *)
  clock : Cycles.t;  (* verifier side *)
  device_clock : Cycles.t;
  telemetry : Telemetry.t;
  aggregator : Aggregator.t;
  obs : Obs.Log.t option;
  mutable obs_epoch : int;  (* last epoch an Epoch_opened was recorded for *)
  arrival_prng : Fault_plan.Prng.t;
  pending_q : session Queue.t;
  mutable inflight : session list;
  mutable inflight_n : int;
  mutable now : int;
  mutable fault_queue : fault Campaign.scheduled list;  (* sorted by [at] *)
  mutable arrivals : int;
  mutable admitted : int;
  mutable max_queue_depth : int;
  mutable quarantined_serials : string list;
  mutable key_derivations : int;
  mutable latencies : int list;  (* settled sessions, newest first *)
  mutable closed_next : int array;
      (* per-device slice of the next closed-loop request; [||] in
         open-loop mode.  A device with a session in flight is parked
         at [max_int] until {!settle} reschedules it. *)
  mutable closed_think : int;
}

(* The gateway-layer chaos schedule: correlated outages, wedged devices
   and deadline-crossing replies, seeded like [Swarm.fault_events] so
   the whole campaign stays a pure function of its tuple. *)
let network_faults ~seed ~devices ~horizon =
  let prng = Fault_plan.Prng.create (seed lxor 0x6A7E) in
  let count = max 2 (devices / 4) in
  let span = max 1 (horizon * 3 / 4) in
  List.init count (fun _ ->
      let at = Fault_plan.Prng.int prng span in
      let device = Fault_plan.Prng.int prng devices in
      let fault =
        match Fault_plan.Prng.int prng 3 with
        | 0 -> Burst_loss { duration = 6 + Fault_plan.Prng.int prng 20 }
        | 1 -> Device_stall { duration = 8 + Fault_plan.Prng.int prng 24 }
        | _ ->
            Late_reply
              {
                extra = 4 + Fault_plan.Prng.int prng 10;
                duration = 8 + Fault_plan.Prng.int prng 16;
              }
      in
      { Campaign.at; device; fault })
  |> List.stable_sort (fun (a : _ Campaign.scheduled) b -> compare a.at b.at)

let create ?(config = default_config) ?(faults = false) ?(fault_horizon = 256)
    ?(loss_percent = 10) ?obs ~devices ~seed () =
  if devices <= 0 then invalid_arg "Gateway.create: devices must be positive";
  let master =
    Bytes.of_string (Printf.sprintf "serve-master-%08x" (seed land 0xFFFF_FFFF))
  in
  let registry = Registry.create ~master in
  let image = Fleet.reference_image ~seed ~size:512 in
  let fw_id = Task_id.of_image image in
  let clock = Cycles.create () in
  let device_clock = Cycles.create () in
  let telemetry = Campaign.telemetry clock in
  let genesis =
    Cost_model.charged device_clock (fun () -> Attestation.cf_genesis ~id:fw_id)
  in
  let provers =
    Array.init devices (fun i ->
        let serial = Campaign.serial_of i in
        let link = Campaign.link ~seed ~salt:31 ~faults ~loss_percent i in
        let platform_key = Registry.platform_key registry ~serial in
        let ka =
          Cost_model.charged device_clock (fun () -> Attestation.derive_ka ~platform_key)
        in
        {
          serial;
          link;
          ka;
          id = fw_id;
          stall_until = 0;
          late_until = 0;
          late_extra = 0;
        })
  in
  let aggregator =
    Aggregator.create
      ~ka_of:(fun ~serial -> Registry.attestation_key registry ~serial)
      ~clock ~telemetry ()
  in
  (* Epoch-seal events ride the aggregator's observer hook: the sealed
     batch lands under the corr id of the epoch that collected it. *)
  (match obs with
  | Some log ->
      Aggregator.on_seal aggregator (fun ~epoch ~root ~leaves ->
          Obs.Log.record log
            ~corr:(Printf.sprintf "serve/epoch-%d" epoch)
            ~at:(epoch * epoch_slices)
            (Obs.Event.Epoch_sealed
               { epoch; root_hex = Crypto.Sha256.to_hex root; leaves }))
  | None -> ());
  {
    cfg = config;
    seed;
    faults;
    loss_percent;
    registry;
    fw_id;
    genesis = Lazy.from_val genesis;
    provers;
    store = Hashtbl.create (config.store_capacity * 2);
    by_seq = Hashtbl.create 1024;
    clock;
    device_clock;
    telemetry;
    aggregator;
    obs;
    obs_epoch = -1;
    arrival_prng = Fault_plan.Prng.create (seed lxor 0xA2211);
    pending_q = Queue.create ();
    inflight = [];
    inflight_n = 0;
    now = 0;
    fault_queue =
      (if faults then network_faults ~seed ~devices ~horizon:fault_horizon
       else []);
    arrivals = 0;
    admitted = 0;
    max_queue_depth = 0;
    quarantined_serials = [];
    key_derivations = 0;
    latencies = [];
    closed_next = [||];
    closed_think = 0;
  }

(* ---- flight recorder -------------------------------------------------- *)

let kind_label = function
  | Static -> "static"
  | Batched -> "batched"
  | Cfa -> "cfa"

(* A crossed deadline settles as [Gave_up] too: either way the session
   consumed its budget without an answer, so both read "timed-out". *)
let verdict_label = function
  | Verifier.Attested -> "attested"
  | Verifier.Refused -> "refused"
  | Verifier.Gave_up -> "timed-out"
  | Verifier.Cfa_rejected -> "cfa-rejected"
  | Verifier.Pending -> "pending"

let frame_kind = function
  | Protocol.Challenge _ -> "challenge"
  | Protocol.Response _ -> "response"
  | Protocol.Refusal _ -> "refusal"
  | Protocol.CfaChallenge _ -> "cfa-challenge"
  | Protocol.CfaResponse _ -> "cfa-response"
  | Protocol.UpdateOffer _ -> "update-offer"
  | Protocol.UpdateChunk _ -> "update-chunk"
  | Protocol.UpdateAck _ -> "update-ack"

let observe t ~corr event = Campaign.observe t.obs ~corr ~at:t.now event

(* The epoch correlation id is minted lazily on first use — arrivals in
   a slice precede the service step, so the first event of an epoch can
   be an admission. *)
let epoch_corr t =
  let e = t.now / epoch_slices in
  let corr = Printf.sprintf "serve/epoch-%d" e in
  (match t.obs with
  | Some log when t.obs_epoch <> e ->
      t.obs_epoch <- e;
      ignore (Obs.Log.mint log corr);
      Obs.Log.record log ~corr ~at:t.now (Obs.Event.Epoch_opened { epoch = e })
  | _ -> ());
  corr

(* Every occurrence the report counts is recorded once, as a telemetry
   counter; the report and these accessors read it back. *)
let count t name = Telemetry.counter t.telemetry ~component:"serve" name
let tally t name = Telemetry.incr t.telemetry ~component:"serve" name

let slice t = t.now
let pending_depth t = Queue.length t.pending_q
let inflight_count t = t.inflight_n
let malformed_frames t = count t "malformed_frames"
let stale_frames t = count t "stale_frames"
let unknown_frames t = count t "unknown_frames"

let apply_due_faults t =
  let at = t.now in
  let rec go () =
    match t.fault_queue with
    | ev :: rest when ev.Campaign.at <= at ->
        t.fault_queue <- rest;
        let p = t.provers.(ev.device) in
        (match ev.fault with
        | Burst_loss { duration } -> Link.set_burst p.link ~until:(at + duration)
        | Device_stall { duration } ->
            p.stall_until <- max p.stall_until (at + duration)
        | Late_reply { extra; duration } ->
            p.late_until <- max p.late_until (at + duration);
            p.late_extra <- extra);
        Telemetry.incr t.telemetry ~component:"fault" (fault_label ev.fault);
        go ()
    | _ -> ()
  in
  go ()

(* ---- device-state store (LRU, bounded) -------------------------------- *)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun serial st acc ->
        match acc with
        | None -> Some (serial, st)
        | Some (serial', st') ->
            (* Deterministic LRU: oldest last_used, serial breaks ties. *)
            if
              st.last_used < st'.last_used
              || (st.last_used = st'.last_used && serial < serial')
            then Some (serial, st)
            else acc)
      t.store None
  in
  match victim with
  | Some (serial, _) ->
      Hashtbl.remove t.store serial;
      tally t "evictions";
      if t.obs <> None then
        observe t ~corr:(epoch_corr t) (Obs.Event.Evicted { serial })
  | None -> ()

let lookup_store t ~serial =
  match Hashtbl.find_opt t.store serial with
  | Some st -> st
  | None ->
      if Hashtbl.length t.store >= t.cfg.store_capacity then evict_lru t;
      let ka =
        Cost_model.charged t.clock (fun () -> Registry.attestation_key t.registry ~serial)
      in
      t.key_derivations <- t.key_derivations + 1;
      let st =
        {
          ka;
          tokens = t.cfg.bucket_capacity;
          refill_at = t.now;
          streak = 0;
          quarantined_until = 0;
          last_used = t.now;
        }
      in
      Hashtbl.replace t.store serial st;
      st

let refill t (st : dev_state) =
  let elapsed = t.now - st.refill_at in
  if elapsed >= t.cfg.bucket_refill_slices then begin
    let n = elapsed / t.cfg.bucket_refill_slices in
    st.tokens <- min t.cfg.bucket_capacity (st.tokens + n);
    st.refill_at <- st.refill_at + (n * t.cfg.bucket_refill_slices)
  end

(* ---- sessions --------------------------------------------------------- *)

let make_verifier t (st : dev_state) ~serial ~kind ~label =
  match kind with
  | Static ->
      Verifier.create ~ka:st.ka ~expected:t.fw_id ~backoff ~max_attempts
        ~refusals_to_settle:2 ~session:label ()
  | Batched ->
      (* Verification delegated to the aggregator's measurement cache;
         the session's own key is unused. *)
      Verifier.create ~ka:Bytes.empty ~expected:t.fw_id ~backoff ~max_attempts
        ~refusals_to_settle:2
        ~check:(fun ~nonce report ->
          Aggregator.check_report t.aggregator ~serial ~expected:t.fw_id ~nonce
            report)
        ~session:label ()
  | Cfa ->
      Verifier.create ~ka:st.ka ~expected:t.fw_id ~backoff ~max_attempts
        ~refusals_to_settle:2
        ~cfa:(Campaign.quiescent ~genesis:(Lazy.force t.genesis))
        ~session:label ()

let draw_kind t =
  match Fault_plan.Prng.int t.arrival_prng 10 with
  | 0 | 1 | 2 | 3 | 4 -> Static
  | 5 | 6 | 7 -> Batched
  | _ -> Cfa

let shed_arrival t ~serial refusal =
  tally t ("shed_" ^ refusal_label refusal);
  if t.obs <> None then
    observe t ~corr:(epoch_corr t)
      (Obs.Event.Session_shed { serial; reason = refusal_label refusal });
  Shed refusal

let arrive t ~device =
  if device < 0 || device >= Array.length t.provers then
    invalid_arg "Gateway.arrive: no such device";
  t.arrivals <- t.arrivals + 1;
  let serial = t.provers.(device).serial in
  let st = lookup_store t ~serial in
  st.last_used <- t.now;
  if t.now < st.quarantined_until then shed_arrival t ~serial Quarantined
  else begin
    refill t st;
    if st.tokens <= 0 then shed_arrival t ~serial Rate_limited
    else if Queue.length t.pending_q >= t.cfg.max_pending then
      shed_arrival t ~serial Busy
    else begin
      st.tokens <- st.tokens - 1;
      t.admitted <- t.admitted + 1;
      let kind = draw_kind t in
      let label = Printf.sprintf "%s/a%06d" serial t.admitted in
      let verifier = make_verifier t st ~serial ~kind ~label in
      if t.obs <> None then begin
        Campaign.mint t.obs ~parent:(epoch_corr t) label;
        observe t ~corr:label
          (Obs.Event.Session_admitted { serial; kind = kind_label kind })
      end;
      Queue.push
        {
          s_serial = serial;
          s_device = device;
          s_kind = kind;
          s_corr = label;
          verifier;
          admitted_at = t.now;
          started_at = -1;
        }
        t.pending_q;
      let depth = Queue.length t.pending_q in
      if depth > t.max_queue_depth then t.max_queue_depth <- depth;
      Admitted
    end
  end

let settle t (s : session) ~verdict =
  Hashtbl.remove t.by_seq (s.s_serial, Verifier.seq s.verifier);
  let latency = t.now - s.admitted_at in
  t.latencies <- latency :: t.latencies;
  observe t ~corr:s.s_corr
    (Obs.Event.Session_settled
       { serial = s.s_serial; verdict = verdict_label verdict; latency });
  (* Closed loop: the device's client thinks for [closed_think] slices
     after its session concludes, then asks again. *)
  if Array.length t.closed_next > 0 then
    t.closed_next.(s.s_device) <- t.now + t.closed_think;
  tally t (String.map (function '-' -> '_' | c -> c) (verdict_label verdict));
  match Hashtbl.find_opt t.store s.s_serial with
  | None -> ()  (* evicted mid-session; the breaker state went with it *)
  | Some st ->
      let mac_suspect =
        Verifier.rejected_frames s.verifier > 0 && verdict <> Verifier.Attested
      in
      let failed =
        verdict = Verifier.Gave_up || verdict = Verifier.Cfa_rejected || mac_suspect
      in
      if verdict = Verifier.Attested then st.streak <- 0
      else if failed then begin
        st.streak <- st.streak + 1;
        if st.streak >= breaker_threshold then begin
          st.streak <- 0;
          st.quarantined_until <- t.now + quarantine_slices;
          if not (List.mem s.s_serial t.quarantined_serials) then
            t.quarantined_serials <- s.s_serial :: t.quarantined_serials;
          tally t "quarantines";
          observe t ~corr:s.s_corr
            (Obs.Event.Breaker_tripped { serial = s.s_serial });
          observe t ~corr:s.s_corr
            (Obs.Event.Quarantined { serial = s.s_serial })
        end
      end

(* ---- frame plumbing --------------------------------------------------- *)

let seq_of = function
  | Protocol.Challenge { seq; _ }
  | Protocol.Response { seq; _ }
  | Protocol.Refusal { seq }
  | Protocol.CfaChallenge { seq; _ }
  | Protocol.CfaResponse { seq; _ }
  | Protocol.UpdateOffer { seq; _ }
  | Protocol.UpdateChunk { seq; _ }
  | Protocol.UpdateAck { seq; _ } ->
      seq

(* The gateway's session demux.  Every inbound frame is classified —
   malformed, unknown revision, stale, or routed to the live session
   whose sequence it carries — and none of the paths can raise: garbage
   ends in a counter, never an exception. *)
let route t (p : prover) frame =
  match Protocol.decode frame with
  | Error e ->
      tally t (if Protocol.is_unknown_tag e then "unknown_frames" else "malformed_frames")
  | Ok msg -> (
      match Hashtbl.find_opt t.by_seq (p.serial, seq_of msg) with
      | None -> tally t "stale_frames"
      | Some s ->
          observe t ~corr:s.s_corr
            (Obs.Event.Frame_received { kind = frame_kind msg });
          (* Static and CFA sessions verify inline, so the frame handler
             is where their crypto burns; the aggregator's check charges
             itself internally — wrapping it would double-count. *)
          (match s.s_kind with
          | Batched -> Verifier.on_frame s.verifier frame
          | Static | Cfa ->
              Cost_model.charged t.clock (fun () -> Verifier.on_frame s.verifier frame)))

let inject_frame t ~device frame =
  if device < 0 || device >= Array.length t.provers then
    invalid_arg "Gateway.inject_frame: no such device";
  route t t.provers.(device) frame

let prover_step t (p : prover) =
  let at = t.now in
  let frames = Link.deliver p.link ~to_:Link.Device ~at in
  (* A stalled device still drains its inbox — the frames just die
     there, exactly like wedged firmware. *)
  if at >= p.stall_until then
    List.iter
      (fun frame ->
        let reply_at = if at < p.late_until then at + p.late_extra else at in
        match Protocol.decode frame with
        | Error _ -> ()
        | Ok msg ->
            Option.iter
              (fun reply ->
                Link.send p.link ~from:Link.Device ~at:reply_at
                  (Protocol.encode reply))
              (Campaign.answer ~clock:t.device_clock ~ka:p.ka ~loaded:p.id
                 ~genesis:t.genesis msg))
      frames

(* ---- the service loop ------------------------------------------------- *)

let step t =
  let at = t.now in
  apply_due_faults t;
  if at mod epoch_slices = 0 then begin
    (* Seals the outgoing batch and clears the measurement cache: a
       verdict cached under one nonce epoch must not answer the next. *)
    Aggregator.begin_epoch t.aggregator ~epoch:(at / epoch_slices);
    if t.obs <> None then ignore (epoch_corr t)
  end;
  (* Start queued sessions up to the in-flight cap. *)
  while t.inflight_n < max_inflight && not (Queue.is_empty t.pending_q) do
    let s = Queue.pop t.pending_q in
    s.started_at <- at;
    Hashtbl.replace t.by_seq (s.s_serial, Verifier.seq s.verifier) s;
    t.inflight <- s :: t.inflight;
    t.inflight_n <- t.inflight_n + 1
  done;
  (* Device side: provers answer what reached them. *)
  Array.iter (fun p -> prover_step t p) t.provers;
  (* Remote side: route every arrived frame to its session. *)
  Array.iter
    (fun p -> List.iter (route t p) (Link.deliver p.link ~to_:Link.Remote ~at))
    t.provers;
  (* Poll, enforce deadlines, settle. *)
  let still = ref [] in
  List.iter
    (fun s ->
      if
        Verifier.outcome s.verifier = Verifier.Pending
        && at - s.started_at >= t.cfg.deadline_slices
      then settle t s ~verdict:Verifier.Gave_up
      else begin
        (match Verifier.poll s.verifier ~at with
        | Some frame ->
            (match t.obs with
            | Some _ -> (
                match Protocol.decode frame with
                | Ok msg ->
                    observe t ~corr:s.s_corr
                      (Obs.Event.Frame_sent { kind = frame_kind msg })
                | Error _ -> ())
            | None -> ());
            Link.send t.provers.(s.s_device).link ~from:Link.Remote ~at frame
        | None -> ());
        match Verifier.outcome s.verifier with
        | Verifier.Pending -> still := s :: !still
        | verdict -> settle t s ~verdict
      end)
    t.inflight;
  t.inflight <- List.rev !still;
  t.inflight_n <- List.length t.inflight;
  t.now <- at + 1

(* ---- reports ---------------------------------------------------------- *)

type arrival_mode =
  | Open_loop
  | Closed_loop of { think : int }

type report = {
  devices : int;
  load_slices : int;
  total_slices : int;
  arrival_permille : int;
  think : int option;  (* Some t in closed-loop mode *)
  seed : int;
  faults : bool;
  loss_percent : int;
  arrivals : int;
  admitted : int;
  attested : int;
  refused : int;
  timed_out : int;
  cfa_rejected : int;
  shed_busy : int;
  shed_rate_limited : int;
  shed_quarantined : int;
  max_queue_depth : int;
  queue_bound : int;
  p50_slices : int;
  p99_slices : int;
  throughput_per_kslice : int;
  quarantined : string list;
  quarantine_trips : int;
  evictions : int;
  key_derivations : int;
  malformed_frames : int;
  stale_frames : int;
  unknown_frames : int;
  verifier_cycles : int;
  device_cycles : int;
  link : (string * int) list;
  telemetry : (string * int) list;
}

let shed r = r.shed_busy + r.shed_rate_limited + r.shed_quarantined
let settled r = r.attested + r.refused + r.timed_out + r.cfa_rejected

let sum_links provers =
  Array.fold_left
    (fun acc (p : prover) ->
      let counters = Link.counters p.link in
      match acc with
      | [] -> counters
      | _ ->
          List.map2 (fun (k, a) (k', b) ->
              assert (k = k');
              (k, a + b))
            acc counters)
    [] provers

let report_of t ~load_slices ~arrival_permille ~think =
  let sorted = Array.of_list t.latencies in
  Array.sort compare sorted;
  (* Nearest-rank over the exact latency population — not the
     log-bucketed telemetry histogram, so the p99 row in the bench table
     is sharp. *)
  let rank = Obs.Slo.percentile sorted in
  let settled =
    count t "attested" + count t "refused" + count t "timed_out"
    + count t "cfa_rejected"
  in
  {
    devices = Array.length t.provers;
    load_slices;
    total_slices = t.now;
    arrival_permille;
    think;
    seed = t.seed;
    faults = t.faults;
    loss_percent = t.loss_percent;
    arrivals = t.arrivals;
    admitted = t.admitted;
    attested = count t "attested";
    refused = count t "refused";
    timed_out = count t "timed_out";
    cfa_rejected = count t "cfa_rejected";
    shed_busy = count t ("shed_" ^ refusal_label Busy);
    shed_rate_limited = count t ("shed_" ^ refusal_label Rate_limited);
    shed_quarantined = count t ("shed_" ^ refusal_label Quarantined);
    max_queue_depth = t.max_queue_depth;
    queue_bound = t.cfg.max_pending;
    p50_slices = rank 50;
    p99_slices = rank 99;
    throughput_per_kslice = settled * 1000 / max 1 t.now;
    quarantined = List.sort compare t.quarantined_serials;
    quarantine_trips = count t "quarantines";
    evictions = count t "evictions";
    key_derivations = t.key_derivations;
    malformed_frames = malformed_frames t;
    stale_frames = stale_frames t;
    unknown_frames = unknown_frames t;
    verifier_cycles = Cycles.now t.clock;
    device_cycles = Cycles.now t.device_clock;
    link = sum_links t.provers;
    telemetry = Campaign.counters t.telemetry;
  }

let run ?(config = default_config) ?(faults = false) ?(loss_percent = 10)
    ?(arrival = Open_loop) ?obs ~devices ~slices ~arrival_permille ~seed () =
  if slices <= 0 then invalid_arg "Gateway.run: slices must be positive";
  if arrival_permille < 0 then
    invalid_arg "Gateway.run: arrival_permille must be non-negative";
  (match arrival with
  | Closed_loop { think } when think < 0 ->
      invalid_arg "Gateway.run: think must be non-negative"
  | _ -> ());
  let t =
    create ~config ~faults ~fault_horizon:slices ~loss_percent ?obs ~devices
      ~seed ()
  in
  (match arrival with
  | Open_loop -> ()
  | Closed_loop { think } ->
      (* Stagger first requests so the whole population does not slam
         the gateway at slice 0. *)
      t.closed_next <- Array.init devices (fun i -> i mod (think + 1));
      t.closed_think <- think);
  for _ = 1 to slices do
    (match arrival with
    | Open_loop ->
        (* Open-loop offered load: arrival_permille / 1000 arrivals per
           slice in expectation, device chosen uniformly.  The generator
           does not wait for the gateway — that is what makes overload
           possible. *)
        let n =
          (arrival_permille / 1000)
          + (if
               Fault_plan.Prng.int t.arrival_prng 1000
               < arrival_permille mod 1000
             then 1
             else 0)
        in
        for _ = 1 to n do
          ignore (arrive t ~device:(Fault_plan.Prng.int t.arrival_prng devices))
        done
    | Closed_loop { think } ->
        (* Closed-loop load: each device has one outstanding request at
           most; the next is issued [think] slices after the previous
           one settles (or is shed).  The generator waits for the
           gateway — load self-limits, which is what changes the shed
           profile versus the open-loop generator. *)
        Array.iteri
          (fun d due ->
            if due <= t.now then
              match arrive t ~device:d with
              | Admitted -> t.closed_next.(d) <- max_int
              | Shed _ -> t.closed_next.(d) <- t.now + think + 1)
          t.closed_next);
    step t
  done;
  (* Drain: no new arrivals; the deadline bounds every started session,
     so the queue empties in bounded time.  The cap is a backstop. *)
  let drain_cap =
    t.now
    + ((config.max_pending / max_inflight) + 3) * config.deadline_slices
    + backoff.Verifier.cap_slices
  in
  while
    (t.inflight_n > 0 || not (Queue.is_empty t.pending_q)) && t.now < drain_cap
  do
    step t
  done;
  (* Backstop only: anything past the cap is forced to a conclusion so
     [settled = admitted] is an invariant of every report. *)
  Queue.iter (fun s -> settle t s ~verdict:Verifier.Gave_up) t.pending_q;
  Queue.clear t.pending_q;
  List.iter (fun s -> settle t s ~verdict:Verifier.Gave_up) t.inflight;
  t.inflight <- [];
  t.inflight_n <- 0;
  Aggregator.flush t.aggregator;
  report_of t ~load_slices:slices ~arrival_permille
    ~think:
      (match arrival with
      | Open_loop -> None
      | Closed_loop { think } -> Some think)

let body r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "serve campaign: devices=%d slices=%d(+%d drain) rate=%d/1000 seed=%d faults=%s loss=%d%%\n"
    r.devices r.load_slices
    (r.total_slices - r.load_slices)
    r.arrival_permille r.seed
    (if r.faults then "on" else "off")
    r.loss_percent;
  (match r.think with
  | Some think -> add "arrival=closed think=%d\n" think
  | None -> ());
  add "arrivals=%d admitted=%d shed=%d (busy=%d rate=%d quarantine=%d)\n"
    r.arrivals r.admitted (shed r) r.shed_busy r.shed_rate_limited
    r.shed_quarantined;
  add "verdicts: attested=%d refused=%d timed_out=%d cfa_rejected=%d\n"
    r.attested r.refused r.timed_out r.cfa_rejected;
  add "queue: max_depth=%d bound=%d\n" r.max_queue_depth r.queue_bound;
  add "latency: p50=%d p99=%d slices\n" r.p50_slices r.p99_slices;
  add "throughput=%d settled/kslice\n" r.throughput_per_kslice;
  add "quarantine: trips=%d devices=[%s]\n" r.quarantine_trips
    (String.concat " " r.quarantined);
  add "store: evictions=%d key_derivations=%d\n" r.evictions r.key_derivations;
  add "frames: malformed=%d stale=%d unknown=%d\n" r.malformed_frames
    r.stale_frames r.unknown_frames;
  add "verifier_cycles=%d device_cycles=%d\n" r.verifier_cycles r.device_cycles;
  List.iter (fun (k, v) -> add "  link.%s=%d\n" k v) r.link;
  List.iter (fun (k, v) -> add "  %s=%d\n" k v) r.telemetry;
  Buffer.contents b

let to_string = Campaign.to_string body
let equal = Campaign.equal body
