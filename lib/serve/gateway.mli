(** The verifier gateway: a long-lived attestation service.

    Everything below [lib/serve] attests {e one} device per session and
    assumes someone re-creates the session when it ends.  A deployment
    has neither luxury: a fleet's verifier is a service that thousands of
    devices hit continuously, and what matters is not whether a single
    MAC checks but whether the service {e degrades gracefully} when the
    offered load exceeds what it can carry.  The gateway multiplexes
    many concurrent {!Tytan_netsim.Verifier} sessions — static, batched
    (through {!Tytan_netsim.Aggregator}) and CFA — over per-device lossy
    links, under an explicit robustness regime:

    - {b Admission control}: arrivals queue in a bounded pending queue;
      when it is full the gateway sheds the session with a typed {!Busy}
      refusal instead of growing without bound.  At most 128 sessions
      run concurrently.
    - {b Rate limiting}: a per-device token bucket; a device hammering
      the gateway is refused {!Rate_limited} without consuming protocol
      resources.
    - {b Deadlines}: every started session carries a hard deadline on
      top of the verifier's own retransmit schedule; crossing it settles
      the session as timed out, so no session can pin gateway state
      forever.
    - {b Device-state store}: per-device keys and breaker state live in
      a bounded LRU store; above capacity the least-recently-used entry
      is evicted and the key re-derived (and re-charged) on the device's
      next arrival.
    - {b Circuit breaker}: a device whose sessions repeatedly time out
      or fail MAC checks is quarantined for a while — its arrivals are
      refused {!Quarantined} — so a broken or hostile device cannot
      monopolise the retransmit budget.

    The gateway is a discrete-event simulation over slices, seeded end
    to end: the same [(devices, slices, arrival rate, seed, faults)]
    tuple reproduces verdict counts, latency percentiles and shed
    counters bit for bit.  The network-layer chaos vocabulary is this
    module's own {!fault}.  See DESIGN.md §14. *)

type config = {
  max_pending : int;  (** pending-queue bound; beyond it arrivals shed *)
  bucket_capacity : int;  (** per-device token-bucket burst size *)
  bucket_refill_slices : int;  (** slices per token refilled *)
  store_capacity : int;  (** LRU device-state entries kept *)
  deadline_slices : int;  (** hard per-session deadline once started *)
}

val default_config : config
(** pending 64, bucket 4 cap / 16 slices per token, store 512,
    deadline 96.

    The rest of the regime is fixed: 128 sessions in flight, 6
    attempts per session under {!Tytan_netsim.Verifier.default_backoff}, a breaker
    that trips after 3 consecutive failed sessions and holds for 256
    slices, and 64-slice aggregator nonce epochs (the retained Merkle
    tree seals once per epoch). *)

type refusal =
  | Busy  (** pending queue full — load shed *)
  | Rate_limited  (** the device's token bucket is empty *)
  | Quarantined  (** the device's circuit breaker is open *)

type admission =
  | Admitted
  | Shed of refusal

type session_kind =
  | Static  (** plain challenge/response, inline HMAC check *)
  | Batched  (** verification routed through the Merkle aggregator *)
  | Cfa  (** control-flow challenge; quiescent devices answer an
             empty, genesis-anchored log *)

type t

val create :
  ?config:config ->
  ?faults:bool ->
  ?fault_horizon:int ->
  ?loss_percent:int ->
  ?obs:Tytan_obs.Obs.Log.t ->
  devices:int ->
  seed:int ->
  unit ->
  t
(** A gateway over [devices] provisioned provers on seeded lossy links
    (default 10% loss; with [~faults] the links also corrupt, duplicate
    and reorder, and a seeded {!network_faults} schedule over the first
    [fault_horizon] slices is applied as it falls due).

    With [?obs] every admission, shed, frame, verdict, breaker trip and
    epoch seal is recorded in the flight recorder: epoch correlation
    ids [serve/epoch-N] parent per-session ids [serial/aNNNNNN], so any
    outcome traces back through its causal chain.  Recording charges no
    cycles — an observed run is bit-identical to an unobserved one. *)

val step : t -> unit
(** Advance one slice: apply due faults, roll the aggregator epoch,
    start pending sessions up to the in-flight cap, run every prover,
    route device replies to their sessions, poll and settle. *)

val arrive : t -> device:int -> admission
(** One attestation request for [device] at the current slice — the
    admission decision is returned and recorded either way. *)

val inject_frame : t -> device:int -> bytes -> unit
(** Feed a raw frame to the gateway as if it had arrived from [device]
    — the fuzzing hook.  Whatever the bytes, the gateway classifies
    (malformed / unknown-revision / stale / session-routed) and never
    raises. *)

val slice : t -> int

val pending_depth : t -> int

val inflight_count : t -> int

val malformed_frames : t -> int
(** Frames that failed {!Tytan_netsim.Protocol.decode}. *)

val unknown_frames : t -> int
(** Well-formed frames from an unknown (newer) protocol revision. *)

val stale_frames : t -> int
(** Well-formed frames whose sequence matches no live session — late
    replies that crossed a deadline. *)

type fault =
  | Burst_loss of { duration : int }
      (** the device's link drops every frame, both directions, for
          [duration] slices ({!Tytan_netsim.Link.set_burst}) *)
  | Device_stall of { duration : int }
      (** for [duration] slices the prover drains its inbox but answers
          nothing (wedged firmware, deep sleep) *)
  | Late_reply of {
      extra : int;
      duration : int;
    }
      (** for [duration] slices replies leave [extra] slices late — late
          enough to cross a deadline and arrive stale *)

val network_faults :
  seed:int -> devices:int -> horizon:int -> fault Tytan_netsim.Campaign.scheduled list
(** The seeded gateway-layer fault schedule [create ~faults:true] uses,
    stably sorted by slice — exposed so tests can pin its
    determinism. *)

type arrival_mode =
  | Open_loop
      (** the generator offers load blindly ([arrival_permille] per 1000
          slices, uniform over devices) — overload is possible *)
  | Closed_loop of { think : int }
      (** each device keeps at most one request outstanding and issues
          the next [think] slices after the previous settles (or is
          shed) — load self-limits, which reshapes the shed profile *)

type report = {
  devices : int;
  load_slices : int;  (** slices during which arrivals were offered *)
  total_slices : int;  (** including the drain tail *)
  arrival_permille : int;  (** offered load: arrivals per 1000 slices *)
  think : int option;  (** [Some t] when the campaign ran closed-loop *)
  seed : int;
  faults : bool;
  loss_percent : int;
  arrivals : int;
  admitted : int;
  attested : int;
  refused : int;
  timed_out : int;  (** deadline crossed or retransmit budget exhausted *)
  cfa_rejected : int;
  shed_busy : int;
  shed_rate_limited : int;
  shed_quarantined : int;
  max_queue_depth : int;  (** never exceeds [max_pending] *)
  queue_bound : int;  (** the configured [max_pending], for the record *)
  p50_slices : int;  (** median admitted-to-settled latency *)
  p99_slices : int;
  throughput_per_kslice : int;  (** settled sessions per 1000 slices *)
  quarantined : string list;  (** serials ever quarantined, sorted *)
  quarantine_trips : int;
  evictions : int;  (** LRU device-state evictions *)
  key_derivations : int;  (** gateway-side Ka derivations (re-admissions
                              after eviction derive again) *)
  malformed_frames : int;
  stale_frames : int;
  unknown_frames : int;
  verifier_cycles : int;
  device_cycles : int;
  link : (string * int) list;  (** summed link counters, fixed order *)
  telemetry : (string * int) list;
      (** counter snapshot, sorted; [fault.<label>] counts the applied
          gateway faults *)
}

val shed : report -> int
(** Total shed arrivals across the three refusal kinds. *)

val settled : report -> int
(** [attested + refused + timed_out + cfa_rejected]; equals [admitted]
    once a campaign has drained. *)

val run :
  ?config:config ->
  ?faults:bool ->
  ?loss_percent:int ->
  ?arrival:arrival_mode ->
  ?obs:Tytan_obs.Obs.Log.t ->
  devices:int ->
  slices:int ->
  arrival_permille:int ->
  seed:int ->
  unit ->
  report
(** A full campaign: offer seeded load for [slices] slices, then stop
    arrivals and drain until every admitted session settles.  Anything
    still unsettled at the (generous) drain cap is force-timed out, so
    [settled = admitted] always holds.

    [?arrival] (default {!Open_loop}) picks the generator.  In
    {!Closed_loop} mode [arrival_permille] is recorded but does not
    drive arrivals — the population's size and think time do; first
    requests are staggered over [think + 1] slices. *)

val to_string : report -> string
(** Deterministic rendering ending in a [digest: sha1:...] line over the
    whole body; two runs are bit-identical iff their renderings are. *)

val equal : report -> report -> bool
(** Rendering equality — the differential / [--verify] comparison. *)
