(** Batched fleet verifier: a measurement cache plus an epoch-persistent
    Merkle tree of verified identities, shardable across domains.

    The scalar {!Verifier} re-runs the full key derivation and HMAC per
    device per health query — fine for one prover, ruinous for a fleet
    polled continuously.  The aggregator sits verifier-side above the
    per-device retry sessions and changes the cost shape:

    - {b Key cache}: the per-device attestation key [Ka] is derived once
      per campaign and reused across epochs, and the HMAC key schedule
      (the two key-pad compressions) is precomputed alongside it, so an
      expected-MAC miss costs only the message compressions.
    - {b Measurement cache}: the first genuine report of a device in an
      epoch costs one HMAC; every later check of the same [(device, id,
      nonce-epoch)] key is a constant-time tag compare.  The cache is
      cleared on {!begin_epoch}: a cached verdict is only ever served
      within the nonce epoch that produced it, because the MAC binds the
      epoch's nonce — serving it across epochs would accept a replay
      (DESIGN.md §13).
    - {b Retained Merkle tree}: one leaf per device persists across
      epochs in a {!Tytan_crypto.Merkle.Inc} tree keyed by the measured
      identity (not the epoch nonce).  Sealing an epoch recomputes only
      the root-paths of devices whose measurement changed, appeared, or
      went silent (tombstoned) — O(changed · log n) instead of O(fleet)
      — and emits a sparse {!delta}; {!query} answers fleet-health polls
      in O(1) with a cache probe plus a root check.  Replay protection
      lives in the per-epoch measurement cache (MACs bind the epoch
      nonce); the tree only vouches for {e which} measurement each live
      device last proved.
    - {b Sharding}: with [shards = D], report checks may run
      concurrently on up to [D] domains, one shard per contiguous
      device range.  Shards share nothing mutable: per-shard caches and
      clocks, with admissions queued per shard and applied by {!drain}
      from sequential code in shard order — which the engine's
      device-range pinning makes identical to sequential admission
      order, so slot order, roots, counters and cycle totals are
      bit-identical to a one-shard run (DESIGN.md §18).

    All crypto is charged to the acting shard's clock by sampling the
    calling domain's compression counters (SHA-1 at
    [Cost_model.crypto_per_compression], SHA-256 at
    [Cost_model.sha256_per_compression]); cache probes charge
    [swarm_cache_lookup] / [swarm_root_check].  Cache hits, misses and
    sealed epochs are counted only in the [telemetry] registry, as
    [swarm.cache_hits], [swarm.cache_misses] and [swarm.batches_sealed]. *)

open Tytan_core
module Crypto = Tytan_crypto

type t

type delta_entry = {
  serial : string;
  before : Task_id.t option;  (** [None] = was absent/tombstoned *)
  after : Task_id.t option;  (** [None] = went silent (tombstoned) *)
}

type delta = { at_epoch : int; new_root : bytes; changed : delta_entry list }
(** Sparse epoch summary: what changed, and the root the changes
    produced.  An all-healthy steady-state epoch has [changed = []]
    except for the epochs that sealed arrivals or departures. *)

val create :
  ka_of:(serial:string -> bytes) ->
  clock:Tytan_machine.Cycles.t ->
  telemetry:Tytan_telemetry.Telemetry.t ->
  ?shards:int ->
  unit ->
  t
(** [ka_of] derives a device's attestation key (typically
    [Registry.attestation_key]); its cost is charged on first use per
    device.  An epoch seals once, at {!flush}/{!begin_epoch}.  [shards] (default 1) sizes the concurrent-checking shard array;
    with one shard the aggregator is byte-for-byte the sequential
    engine. *)

val on_seal : t -> (epoch:int -> root:bytes -> leaves:int -> unit) -> unit
(** Install an observer called whenever an epoch seals (on {!flush} or
    from {!begin_epoch}) with the sealed epoch, root and delta size.
    Purely observational — the campaign engines use it to thread
    epoch-seal events into the flight recorder without the aggregator
    depending on it. *)

val begin_epoch : t -> epoch:int -> unit
(** Seal any pending work under the old epoch, then drop every cached
    measurement: nothing verified under a previous nonce may
    answer for the new one.  Retained leaves survive — only their
    freshness evidence resets. *)

val check_report :
  ?shard:int ->
  t ->
  serial:string ->
  expected:Task_id.t ->
  nonce:bytes ->
  Attestation.report ->
  bool
(** Full verification semantics of {!Attestation.verify} (identity,
    nonce, MAC — constant time), served from the shard's measurement
    cache when the device already verified this epoch.  A genuine first
    report is admitted to the retained tree (immediately with one
    shard; at the next {!drain} otherwise); forged reports are never
    cached.  Plug directly into [Verifier.create ~check].  [shard]
    (default 0) must be the device's pinned shard; only that shard's
    state is touched, so calls on distinct shards are safe to run on
    distinct domains. *)

val drain : t -> unit
(** Sequential sync point after a parallel slice: apply queued
    admissions in shard order, merge shard clocks into the main clock,
    flush deferred telemetry.  No-op with one shard.  Must be called
    from sequential code. *)

val flush : t -> unit
(** Tombstone every live slot not seen alive this epoch, commit the
    retained tree and seal the epoch (end of its collection phase).
    Nothing is sealed when nothing changed since this epoch's last seal.
    Call {!drain} first when sharded. *)

val query : ?shard:int -> t -> serial:string -> epoch:int -> bool
(** O(1) fleet-health poll: is this device's measurement verified {e in
    this epoch} and sealed under a current-epoch root?  [false] for any
    other epoch, unsealed entries, and unknown devices. *)

val carry : t -> serial:string -> bool
(** Mark a live device's slot as still-alive this epoch without
    re-verification (the engine's liveness signal for devices it chose
    not to re-challenge).  Returns [false] for unknown or
    tombstoned devices — those must be re-challenged. *)

val carried_healthy : t -> serial:string -> bool
(** Health poll for a device carried (not re-challenged) this epoch:
    alive this epoch and a live leaf of the retained tree.
    Charges the same lookup + root-check costs as {!query}. *)

val membership_proof : t -> serial:string -> (bytes * Crypto.Merkle.proof) option
(** The device's current leaf payload and its membership proof against
    the last committed root ([Merkle.verify] checks it).
    [None] for unknown or tombstoned devices. *)

val epoch_deltas : t -> delta list
(** Sparse deltas, one per seal, oldest first. *)

val live_leaves : t -> int
(** Non-tombstoned slots in the retained tree. *)

val key_derivations : t -> int
(** How many devices have had [Ka] derived (≤ fleet size, campaign
    lifetime). *)
