(** Interprocedural taint propagation over a finished {!Dataflow} run.

    The pass rides the abstract interpreter's output: {!Dataflow.succs}
    supplies the flow-sensitive successor graph (indirect transfers
    resolved, return edges included), and the per-instruction {!Absval}
    states classify every load/store address.  Taint is a three-point
    lattice mirroring the finding vocabulary:

    - [Clean] — provably carries no secret;
    - [Maybe src] — the analysis lost track (a load through an
      unresolved pointer, an {e imprecise} address interval that
      overlaps a secret region); sinks report these as [Unknown];
    - [Secret src] — provably derived from the named secret source,
      including an exact load that straddles a secret region's edge
      (some of the bytes read are provably secret); sinks report these
      as [Violation].

    Sources are absolute {e secret windows} (attestation-key MMIO, PRNG
    registers, the protected platform-key bytes) and base-relative
    {e secret ranges} (per-image key storage declared in the manifest).
    Loads from {e declass windows} (MAC/crypto engine registers) are
    clean — the crypto routine is the only legitimate laundering point —
    and stores into them do not record taint.

    Register taint propagates through ALU ops (joining operands, with
    [xor r, r]/[sub r, r] recognised as zeroing), through the same LIFO
    operand-spill model the abstract interpreter uses (a push past the
    tracked depth invalidates the model, so pops never launder an
    untracked secret back to [Clean]), and through
    memory: a tainted store to a resolved base-relative range taints
    that range, and the pass iterates to a fixpoint so loads downstream
    of the store pick the taint back up.  A tainted store through an
    {e unresolved} pointer does not taint all of memory — the flow
    checker flags the escape at the store itself instead, which keeps
    one lost pointer from drowning the whole binary in [Maybe]. *)

type t =
  | Clean
  | Maybe of string  (** possibly secret; the source description *)
  | Secret of string  (** provably secret; the source description *)

val join : t -> t -> t

val weaken : t -> t
(** [Secret] demoted to [Maybe] (partial overlaps, lossy contexts). *)

val pp : Format.formatter -> t -> unit

type sources = {
  secret_windows : (int * int * string) list;
      (** absolute [(base, size, label)] secret-producing regions *)
  secret_ranges : (int * int * string) list;
      (** base-relative [(offset, length, label)] secret data *)
  declass_windows : (int * int) list;
      (** absolute [(base, size)] crypto regions: stores declassify *)
}

type result = {
  taints : t array option array;
      (** taint in-state per instruction; [None] = unreachable *)
  mem_ranges : (int * int * t) list;
      (** final base-relative tainted memory ranges *)
  converged : bool;
      (** false when the memory fixpoint hit the iteration cap; the
          flow checker reports an [Unknown] so the verdict stays
          honest *)
}

val run : sources -> stack_region:int * int -> Dataflow.t -> result
(** [stack_region] is the same base-relative range handed to
    {!Dataflow.run}: stores that may alias it invalidate the spill
    model. *)

