(** TELF — the "tiny ELF" relocatable task binary format.

    The paper extends FreeRTOS with an ELF loader because tasks are loaded
    at runtime into whatever memory is free, which makes relocation
    necessary; ELF "encodes all information required for relocation in
    file headers".  TELF keeps exactly that information and nothing else:

    {v
      offset  size  field
      0       4     magic "TELF"
      4       4     format version (1)
      8       4     entry-point offset into the image
      12      4     image size (code + initialised data), bytes
      16      4     text size (executable prefix of the image), bytes
      20      4     bss size (zero-initialised data), bytes
      24      4     stack size, bytes
      28      4     relocation count n
      32      4n    relocation offsets (byte offsets into the image of
                    32-bit fields holding base-relative addresses)
      32+4n   ...   the image, linked at base 0
      ...     ...   (version 2 only) the flow-policy {!Manifest} section
    v}

    A loaded task occupies [image ++ bss ++ stack] contiguously; the
    loader adds the load base to every relocated field ({e apply}) and the
    RTM subtracts it again to compute a position-independent measurement
    ({e revert}).

    Format version 2 appends a {!Manifest} section after the image: the
    declared IPC topology and secret/declassification ranges the
    load-time flow checks lint against.  Version 1 binaries (no
    manifest) remain fully supported; a binary whose manifest is empty
    encodes as version 1. *)

type t = {
  entry : int;  (** offset of the entry point within the image *)
  image : bytes;  (** code + initialised data, linked at base 0 *)
  text_size : int;  (** executable prefix of the image; the rest is data *)
  relocations : int array;  (** sorted byte offsets of absolute fields *)
  bss_size : int;
  stack_size : int;
  manifest : Manifest.t option;  (** flow policy (format version 2) *)
}

val magic : string
val version : int
(** 1; a file with a trailing manifest section carries version 2. *)

val header_size : int
(** Fixed part of the header, excluding the relocation table (32). *)

val make :
  ?manifest:Manifest.t ->
  entry:int ->
  image:bytes ->
  text_size:int ->
  relocations:int array ->
  bss_size:int ->
  stack_size:int ->
  unit ->
  t
(** Validates: entry within the text; sizes non-negative; relocation
    offsets word-aligned, inside the image, pairwise non-overlapping,
    and — when they fall in the text — naming an instruction's
    immediate field (the only text bytes the loader may rewrite).
    An empty [manifest] is normalised to [None].
    @raise Invalid_argument *)

val memory_footprint : t -> int
(** Bytes of RAM the loaded task occupies: image + bss + stack. *)

val encode : t -> bytes

val decode : bytes -> (t, string) result
(** Parse and validate an encoded binary, applying the same relocation
    checks as {!make}.  The relocation table is sorted on the way in, so
    downstream code may rely on the field invariant regardless of how
    the [t] was obtained. *)

val reloc_count : t -> int

val pp : Format.formatter -> t -> unit
