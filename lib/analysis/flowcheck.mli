(** Secret-flow and IPC-topology checks — tycheck's fifth and sixth
    passes.

    {b Flow} runs the {!Taint} pass and reports sinks: an IPC payload
    register (r0–r7 at the send SWI) carrying secret material is a
    [Violation] naming the source and the sink offset; a store of
    secret material to an absolute address outside the declared crypto
    windows is a [Violation]; lossy cases (unresolved pointers, partial
    overlaps, a memory fixpoint that hit its budget) are [Unknown]s.
    Declassification happens only through the MAC/crypto windows —
    stores there are legitimate, loads from them are clean.  A
    manifest may narrow declassification to a sub-window of a platform
    crypto region, but never widen it: a manifest declass window that
    leaves the platform's crypto regions is itself a [Violation] and is
    not honoured by the taint pass (a hostile image cannot declare the
    key-derivation block "declassified" and launder secrets through
    it).

    {b Topology} extracts the static IPC topology: at every reachable
    send or shared-memory SWI the receiver identity in r8/r9 is read
    from the abstract state.  A resolved peer must appear in the
    binary's {!Tytan_telf.Manifest} — an undeclared peer, or a send
    with no manifest at all, is a [Violation]; an unresolvable receiver
    is an [Unknown].  Binaries that never send need no manifest.

    Both checks use the same three-valued {!Finding} vocabulary as the
    original four, so vetting loaders and [--strict] CI compose
    unchanged. *)

open Tytan_telf

type config = {
  secret_windows : (int * int * string) list;
      (** absolute [(base, size, label)] secret-producing regions *)
  declass_windows : (int * int) list;
      (** absolute [(base, size)] crypto/MAC regions where secret
          stores declassify *)
}

val default_config : config
(** Platform key Kp bytes at 0x200, the attestation-key derivation
    window at {!key_window_base}, and the MAC engine's input block at
    0xF000_3000 as the declassifier — matching the platform
    memory map without depending on the core library. *)

val key_window_base : int
(** 0xF000_2000 — where Ka-derived material is read back (16 bytes). *)

val run :
  config:config ->
  stack_region:int * int ->
  Telf.t ->
  Dataflow.t ->
  Finding.t list
(** Apply both checks to a finished dataflow run — how {!Tycheck}
    embeds them without re-running the abstract interpretation.  The
    findings come back unsorted; the caller merges and sorts. *)
