(** The Merkle–Damgård frame shared by {!Sha1} and {!Sha256}.

    Both hashes absorb 64-byte blocks of big-endian 32-bit words into a
    chaining state and close with the same length padding; they differ
    only in their IV, their compression function and their state width.
    [Make] owns everything else once: the streaming context (partial
    block, preallocated message schedule, byte total, compression
    count), range-checked [feed_sub], padding in [finalize], [copy] and
    the compression counters.  Each application of [Make] gets its own
    counters, so SHA-1 and SHA-256 work is billed separately
    ({!Tytan_core.Cost_model.charged} charges them at different rates). *)

module type COMPRESSION = sig
  val name : string
  (** Module name for error messages, e.g. ["Sha1"]. *)

  val iv : int array
  (** The initial chaining state, one 32-bit word per lane; the digest
      is these lanes written big-endian, so it is
      [4 · Array.length iv] bytes. *)

  val schedule_words : int
  (** Length of the message schedule [compress] expands into. *)

  val compress : int array -> int array -> unit
  (** [compress h w] folds one block into the chaining state [h].  The
      first 16 words of [w] hold the block's big-endian words; the rest
      is scratch for the schedule. *)
end

module type S = sig
  type ctx
  (** Streaming hash context. *)

  val digest_size : int

  val block_size : int
  (** 64 bytes — the unit of interruption for the RTM. *)

  val init : unit -> ctx

  val copy : ctx -> ctx
  (** Independent snapshot of a streaming context: feeding the copy does
      not disturb the original.  HMAC uses this to cache the two key-pad
      compressions across MACs under the same key ({!Hmac.prepare}). *)

  val feed : ctx -> bytes -> unit
  (** Absorb data; may be called any number of times. *)

  val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit

  val finalize : ctx -> bytes
  (** Produce the digest.  The context must not be used again. *)

  val digest : bytes -> bytes
  (** One-shot hash. *)

  val digest_string : string -> bytes

  val compression_count : ctx -> int
  (** Number of 64-byte compression-function invocations so far (including
      none for buffered partial data).  The RTM charges cycles per
      compression, so this is the calibration hook for Table 7. *)

  val to_hex : bytes -> string

  val total_compressions : unit -> int
  (** Process-global count of this algorithm's compression-function
      invocations across all contexts.  Trusted services charge
      simulated cycles for crypto by sampling this before and after an
      operation, so the cycle cost of a MAC, key derivation or Merkle
      commit reflects the real block count.  Backed by an [Atomic.t]:
      exact even when several domains hash concurrently. *)

  val domain_compressions : unit -> int
  (** Count of this algorithm's compression-function invocations
      performed by the {e calling domain}.  Charged-cycle samplers that
      may run inside worker domains must take deltas of this counter,
      not the global one — otherwise another domain's hashing would be
      billed to this worker's clock. *)
end

module Make (C : COMPRESSION) : S
