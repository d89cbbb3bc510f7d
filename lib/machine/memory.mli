(** Flat physical memory with memory-mapped I/O, as on Siskiyou Peak.

    The simulated core uses a flat physical addressing model and talks to
    peripherals through MMIO windows.  Reads and writes that hit a
    registered MMIO window are dispatched to the owning device; everything
    else is backed by RAM.  Words are little-endian.

    {2 Sparse RAM}

    RAM is stored as 4 KiB pages.  Every page starts out as one shared
    {e zero page} that is never written; a page gets bytes of its own on
    its first store.  A device image that touches a few hundred KiB of a
    2 MiB RAM therefore costs a few hundred KiB of host memory
    ({!resident_bytes}).  Zeroing a page that was never written
    ({!fill} with [0]) leaves it shared.  The page layout is invisible to
    every accessor except {!iter_range} and {!fetch}, which hand out page
    bytes in place instead of copying them.

    {2 Device floor}

    An address below the lowest mapped MMIO base is RAM, and is served
    without walking the device list.  A window mapped inside RAM still
    takes precedence over the RAM beneath it.

    Raw accessors here perform {e no} protection checks; access control is
    enforced by the CPU's protection hook before it touches memory. *)

type t

type device = {
  name : string;
  base : Word.t;
  size : int;
  read32 : offset:int -> Word.t;
  write32 : offset:int -> Word.t -> unit;
}
(** An MMIO device occupying [\[base, base+size)].  Offsets passed to the
    handlers are word-aligned offsets from [base]. *)

val create : size:int -> t
(** [create ~size] gives [size] bytes of zeroed RAM.  It allocates only
    the page table: every page aliases the zero page until written. *)

(** {2 Fault-injection hooks}

    The fault subsystem ({!Tytan_fault}) models hardware-level faults by
    intercepting accesses at the memory controller.  Both hooks are [None]
    by default and cost nothing when unset. *)

val set_write_fault : t -> (addr:Word.t -> value:Word.t -> Word.t) option -> unit
(** Corruption hook applied to every RAM store: the value actually written
    is the hook's return (faulty cells, disturbed writes).  Byte stores see
    the byte in the low 8 bits; word stores see the whole word.  MMIO
    writes are not affected. *)

val set_mmio_read_fault :
  t -> (device:string -> addr:Word.t -> Word.t option) option -> unit
(** Transient-MMIO-failure hook consulted on every device read; [Some v]
    supplants the device's answer with garbage [v] (a glitched bus cycle),
    [None] lets the read through. *)

val size : t -> int

val resident_bytes : t -> int
(** Host bytes of RAM pages materialised so far: 4 KiB per page written
    at least once.  Never more than [size] rounded up to a whole page. *)

val map_device : t -> device -> unit
(** Register an MMIO window.  @raise Invalid_argument if it overlaps an
    existing window, is empty, or does not lie inside the 32-bit address
    space ([base + size <= 2{^32}]). *)

val device_at : t -> Word.t -> device option
(** The device whose window covers the given address, if any. *)

val read8 : t -> Word.t -> int
val write8 : t -> Word.t -> int -> unit

val read32 : t -> Word.t -> Word.t
(** Little-endian 32-bit load.  MMIO windows require word alignment. *)

val write32 : t -> Word.t -> Word.t -> unit

val blit_bytes : t -> Word.t -> bytes -> unit
(** [blit_bytes mem addr b] copies [b] into RAM at [addr]. *)

val read_bytes : t -> Word.t -> int -> bytes
(** [read_bytes mem addr len] copies [len] bytes of RAM starting at
    [addr]. *)

val fill : t -> Word.t -> int -> int -> unit
(** [fill mem addr len v] sets [len] bytes to the byte value [v]. *)

(** {2 In-place access}

    Like {!blit_bytes} and {!read_bytes}, these address RAM only (MMIO
    windows are not consulted), bypass the fault hooks, and
    @raise Invalid_argument if the range is not inside RAM. *)

val init_range : t -> Word.t -> int -> (int -> char) -> unit
(** [init_range mem addr len f] stores [f i] at [addr + i] for each [i]
    in [\[0, len)], in order, writing the pages directly. *)

val iter_range : t -> Word.t -> int -> (bytes -> pos:int -> len:int -> unit) -> unit
(** [iter_range mem addr len f] presents the [len] bytes at [addr] in
    place, page by page in address order: [f page ~pos ~len] for each
    piece.  No copy is made; an unwritten page is presented as the shared
    zero page, so [f] must not modify [page].  The shape fits a streaming
    hash: [iter_range mem addr len (Sha1.feed_sub ctx)]. *)

val fetch : t -> Word.t -> int -> (bytes -> int -> 'a) -> 'a
(** [fetch mem addr len decode] is [decode b off] where the [len] bytes at
    [addr] are [b.\[off .. off+len-1\]].  When they lie in one page [b]
    is that page itself, so the common case copies and allocates nothing;
    a range that straddles a page boundary is copied first.  [decode]
    must not modify [b]. *)
