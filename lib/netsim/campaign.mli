(** The core every fleet campaign engine shares.

    The swarm sweep ([Tytan_provision.Swarm]), the verifier gateway
    ([Tytan_serve.Gateway]) and the OTA rollout ([Tytan_ota.Rollout],
    with its device-side [Tytan_ota.Installer]) each drive many light
    provers over seeded lossy links and render a digest-stamped report.
    What they have in common lives here, once: device serials and
    links, the light prover's answer to an attestation challenge, the
    zero-cost telemetry and flight-recorder plumbing, the settle-loop
    bounds, and report stamping.  See DESIGN.md §13, "Campaign core". *)

open Tytan_core
module Cycles = Tytan_machine.Cycles
module Telemetry = Tytan_telemetry.Telemetry
module Obs = Tytan_obs.Obs

(** {2 Devices and links} *)

val serial_of : int -> string
(** [dev-NNNNN]: the serial of fleet device [i]. *)

val link : seed:int -> salt:int -> faults:bool -> loss_percent:int -> int -> Link.t
(** [link ~seed ~salt ~faults ~loss_percent i] is device [i]'s uplink,
    seeded from the campaign [seed], the device index and the engine's
    [salt] (each engine uses its own, so two engines never share a link
    schedule).  With [faults] the link also corrupts 3 %, duplicates
    2 % and reorders 2 % of frames. *)

val frame_totals : Link.t array -> int * int * int
(** [(sent, dropped, delivered)] summed over [links]. *)

type 'fault scheduled = {
  at : int;  (** the epoch, slice or wave the fault falls due *)
  device : int;  (** index of the faulted device, [0 .. devices-1] *)
  fault : 'fault;
}
(** One entry of an engine's seeded fault schedule.  Each engine names
    its own fault kinds (the swarm's tamper/kill/hang,
    [Tytan_serve.Gateway.fault], [Tytan_ota.Rollout.fault]);
    [Tytan_fault.Fault_plan] keeps only the machine and task kinds. *)

(** {2 The light prover} *)

val answer :
  clock:Cycles.t ->
  ka:bytes ->
  loaded:Task_id.t ->
  ?genesis:bytes Lazy.t ->
  Protocol.message ->
  Protocol.message option
(** A light prover's reply to one decoded frame, for a device running
    [loaded] under attestation key [ka]:

    - a [Challenge] for [loaded] gets a [Response] whose MAC is
      {!Attestation.expected_mac}; a [Challenge] for anything else gets
      a [Refusal];
    - a [CfaChallenge] is answered only when [genesis] is given: a
      quiescent device's empty control-flow log anchored at [genesis]
      ({!Attestation.expected_cfa_mac}) for [loaded], a [Refusal]
      otherwise;
    - every other frame gets no reply.

    MACs are charged to [clock]; [genesis] is forced outside the
    charge.  Provers without a CFA monitor must not pass [genesis]:
    with no checksum on the wire, a [Challenge] whose tag byte is
    corrupted to ['F'] decodes as a valid [CfaChallenge], and such a
    prover drops it. *)

(** {2 Observation} *)

val telemetry : Cycles.t -> Telemetry.t
(** An enabled registry on [clock] whose events and spans cost nothing,
    so an observed run is cycle-identical to an unobserved one. *)

val counters : Telemetry.t -> (string * int) list
(** The counter snapshot a report prints, sorted by key. *)

val observe : Obs.Log.t option -> corr:string -> at:int -> Obs.Event.t -> unit
(** Record [event] when a flight recorder is attached; charges nothing. *)

val mint : Obs.Log.t option -> ?parent:string -> string -> unit
(** Register a correlation id when a flight recorder is attached. *)

(** {2 Verifier sessions} *)

val settle_cap : Verifier.backoff -> int
(** Slices a settle loop runs before giving up on the wire:
    [16 + 10 × (cap + jitter)] of the backoff schedule. *)

val concede : cap:int -> Verifier.t -> unit
(** Poll a session that outlived the settle loop until it concedes:
    from slice [2 × cap] on, one poll every [cap] slices, until its
    retransmit budget runs out and it leaves [Pending]. *)

val quiescent : genesis:bytes -> Attestation.cfa_report -> (unit, string) result
(** The verifier-side CFA check for an idle device: only the empty log
    anchored at [genesis] passes. *)

(** {2 Reports} *)

val sha1_hex : string -> string
(** Hex SHA-1 of a string: how reports digest verdict strings and
    bodies. *)

val to_string : ('r -> string) -> 'r -> string
(** [to_string body r] is [body r] followed by a [digest: sha1:…] line
    over it. *)

val equal : ('r -> string) -> 'r -> 'r -> bool
(** Equality of the stamped renderings: the [--verify] comparison. *)
