(** Binary Merkle tree over SHA-256 leaves with membership proofs.

    The swarm-attestation aggregator batches per-device report leaves
    into one epoch-stamped root; a fleet operator then vouches for N
    devices with a single 32-byte digest, and any single device's
    membership is provable with an O(log N) path.

    Leaves are hashed as [SHA-256(0x00 | payload)] and interior nodes
    as [SHA-256(left | 0x01 | right)].  The 0x01 sits between the
    children rather than in front of them as in RFC 6962, so the
    separation is partial: an interior node whose left child's digest
    begins with 0x00 can be re-presented as a leaf.  An odd node at any
    level is promoted unchanged, so a one-leaf tree degenerates to the
    leaf hash itself. *)

val leaf_hash : bytes -> bytes
(** [SHA-256(0x00 | payload)]. *)

val node_hash : bytes -> bytes -> bytes
(** [SHA-256(left | 0x01 | right)]. *)

type step = {
  sibling : bytes;  (** the sibling digest to combine with *)
  sibling_on_left : bool;  (** sibling is the left child at this level *)
}

type proof = step list
(** Membership path, leaf level first.  Empty for a singleton tree. *)

type t

val build : bytes array -> t
(** Build over the raw leaf payloads, in order.  Raises [Invalid_argument]
    on an empty array. *)

val root : t -> bytes

val proof : t -> int -> proof
(** Membership proof for the leaf at [index]. *)

val verify : root:bytes -> leaf:bytes -> proof -> bool
(** Recompute the path from the raw [leaf] payload and compare against
    [root] (constant-time digest comparison). *)

(** Incremental tree for epoch-persistent aggregation: leaves survive
    across commits, and a commit rehashes only the root-paths of leaves
    appended or overwritten since the previous commit — O(changed ·
    log n) hashing instead of O(n).  Roots and proofs are bit-identical
    to {!build} over the same payload sequence (same domain separation,
    same odd-node promotion). *)
module Inc : sig
  type t

  val create : unit -> t

  val size : t -> int
  (** Number of leaves (committed or not). *)

  val append : t -> bytes -> int
  (** Append a leaf payload; returns its index.  Takes effect at the
      next {!commit}. *)

  val set : t -> int -> bytes -> unit
  (** Overwrite the payload of an existing leaf. *)

  val commit : t -> bytes
  (** Recompute dirty paths and return the new root.  Raises
      [Invalid_argument] on an empty tree. *)

  val root : t -> bytes
  (** Current committed root.  Raises [Invalid_argument] if there are
      uncommitted changes. *)

  val proof : t -> int -> proof
  (** Membership proof for leaf [index] against the committed root;
      verifiable with {!verify}.  Raises on uncommitted changes. *)
end
