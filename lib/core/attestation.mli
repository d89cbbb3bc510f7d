(** Local and remote attestation.

    The identity [id_t] computed by the RTM serves directly as the local
    attestation report: the EA-MPU guarantees only the RTM writes the
    directory, so a local verifier reading an identity out of it knows it
    is genuine.

    Remote attestation proves [id_t] to a verifier across a network: the
    Remote Attest component MACs the verifier's nonce together with the
    identity under an attestation key [Ka] derived from the platform key
    [Kp].  Only Remote Attest can read [Kp] (EA-MPU rule), so only the
    genuine platform can produce the MAC.  Per-provider keys (paper
    footnote 2) let mutually distrusting stakeholders verify their own
    tasks without sharing a key. *)

open Tytan_machine

type report = {
  id : Task_id.t;
  nonce : bytes;
  mac : bytes;  (** HMAC-SHA1 over nonce | id under Ka (or a provider key) *)
}

(** {2 Control-flow attestation (lib/cfa)}

    A runtime-compromised task — ROP over valid code — attests clean
    under {!remote_attest}: the binary is unchanged.  Control-flow
    attestation closes the gap: the CFA component keeps a hash-chained
    log of the task's control-flow transfers, and [cfa_attest] MACs the
    chain head so the verifier can replay the reported edges against the
    statically recovered CFG. *)

type cf_edge = {
  src : Word.t;  (** code offset of the transferring instruction *)
  dst : Word.t;  (** code offset of the target (SWI number for [Swi_entry]) *)
  kind : Cpu.branch_kind;
}

val cf_edge_size : int
(** Wire size of one edge (9 bytes: src, dst, kind). *)

val cf_edge_to_bytes : cf_edge -> bytes
val cf_edge_of_bytes : bytes -> pos:int -> cf_edge option

val cf_genesis : id:Task_id.t -> bytes
(** The chain's genesis digest, [SHA1(id_t)]: an empty log is already
    bound to the identity it will vouch for. *)

val cf_extend : bytes -> cf_edge -> bytes
(** One chain step: [SHA1(digest | edge)]. *)

type cfa_report = {
  id : Task_id.t;
  nonce : bytes;
  cf_digest : bytes;  (** chain head after the last logged edge *)
  base_digest : bytes;
      (** chain value {e before} the oldest retained edge: the genesis
          digest until the bounded ring evicts, then the fold of every
          evicted edge.  Replaying the retained edges from [base_digest]
          must reach [cf_digest]. *)
  edge_count : int;  (** edges logged over the task's lifetime *)
  edges : cf_edge array;  (** the retained window, oldest first *)
  mac : bytes;
      (** HMAC-SHA1 over nonce | id | cf_digest | edge_count |
          base_digest under Ka *)
}

type t

val create : Cpu.t -> code_eip:Word.t -> kp_addr:Word.t -> rtm:Rtm.t -> t
(** [kp_addr] is the protected platform-key location; reads happen under
    the component's identity, so the EA-MPU must grant them. *)

val code_eip : t -> Word.t

val local_attest : t -> Task_id.t -> bool
(** Is a task with this identity currently loaded?  (A local verifier's
    view of the RTM directory.) *)

val remote_attest : t -> id:Task_id.t -> nonce:bytes -> report option
(** Produce a report for a loaded task; [None] if no such task is loaded.
    Charges cycles for the key derivation and MAC. *)

val remote_attest_for_provider :
  t -> provider:string -> id:Task_id.t -> nonce:bytes -> report option
(** Same, MACed under the provider-specific key. *)

val verify : ka:bytes -> report -> expected:Task_id.t -> nonce:bytes -> bool
(** Verifier side: check the MAC, the identity and the nonce (constant
    time; stale nonces are rejected by the caller tracking freshness). *)

val expected_mac : ka:bytes -> id:Task_id.t -> nonce:bytes -> bytes
(** The MAC a genuine platform would produce for [(id, nonce)] under
    [ka].  A batching verifier computes this once per device per nonce
    epoch and caches it; subsequent reports in the same epoch verify by
    constant-time comparison instead of a fresh HMAC. *)

type mac_state = Tytan_crypto.Hmac.state
(** Precomputed per-device HMAC key schedule: the two Ka key-pad
    compressions, absorbed once per device instead of once per epoch.
    Immutable, so shareable across domains. *)

val expected_mac_with : mac_state -> id:Task_id.t -> nonce:bytes -> bytes
(** [expected_mac] via a precomputed key schedule — same tag, two fewer
    SHA-1 compressions per call. *)

val update_mac :
  ka:bytes -> id:Task_id.t -> version:int -> size:int -> digest:bytes -> bytes
(** The MAC an update authority puts on a firmware offer: HMAC-SHA1 over
    ["TYOTA1"] | version | size | id_t | image digest under [Ka].  The
    target {e version} is bound into the MAC, so a genuinely signed old
    image cannot be re-offered under a fresher version number — the
    installer's anti-rollback check compares the authenticated
    version. *)

val verify_update_mac :
  ka:bytes ->
  id:Task_id.t ->
  version:int ->
  size:int ->
  digest:bytes ->
  tag:bytes ->
  bool
(** Installer side of {!update_mac} (constant-time). *)

val expected_cfa_mac :
  ka:bytes ->
  id:Task_id.t ->
  nonce:bytes ->
  cf_digest:bytes ->
  base_digest:bytes ->
  edge_count:int ->
  bytes
(** The MAC a genuine platform would put on a {!cfa_report} with these
    fields — what lightweight fleet provers (which carry a key and a
    log head but no full platform) use to answer CFA challenges. *)

val cfa_attest :
  t ->
  id:Task_id.t ->
  nonce:bytes ->
  cf_digest:bytes ->
  base_digest:bytes ->
  edge_count:int ->
  edges:cf_edge array ->
  cfa_report option
(** Produce a control-flow report for a loaded task from the CFA log's
    current state; [None] if no such task is loaded.  Charges cycles for
    the key derivation and MAC like {!remote_attest}. *)

val verify_cfa :
  ka:bytes -> cfa_report -> expected:Task_id.t -> nonce:bytes -> bool
(** Authenticity only (MAC, identity, nonce).  Whether the {e path} is
    legal is the replay's job — [Tytan_cfa.Replay.verify]. *)

val derive_ka : platform_key:bytes -> bytes
(** How a provisioned verifier derives [Ka] from the shared [Kp]. *)

val derive_provider_ka : platform_key:bytes -> provider:string -> bytes

val reports_issued : t -> int
