(** Peripheral models attached over MMIO, as on the Siskiyou Peak platform.

    - {!Timer}: the system tick source; fires an IRQ line each time the
      global clock crosses a period boundary.  Device models are polled by
      the platform run loop between instructions.
    - {!Sensor}: a read-only MMIO register whose value is a function of
      simulated time — used for the accelerator-pedal and radar sensors of
      the paper's adaptive-cruise-control use case.
    - {!Console}: a write-only byte sink for diagnostic output. *)

module Timer : sig
  type t

  val create : Exception_engine.t -> Cycles.t -> irq:int -> period:int -> t
  (** A periodic timer raising IRQ [irq] every [period] cycles, starting
      enabled. *)

  val poll : t -> unit
  (** Fire the IRQ if the clock has crossed the next deadline.  Called by
      the platform between instructions. *)

  val period : t -> int
  val enable : t -> unit
  val disable : t -> unit
  val fired : t -> int
  (** Number of IRQs raised so far. *)
end

module Sensor : sig
  type t

  val create :
    name:string ->
    base:Word.t ->
    clock:Cycles.t ->
    sample:(cycles:int -> Word.t) ->
    t
  (** A 4-byte read-only MMIO register at [base]; reads return
      [sample ~cycles:(now clock)]. *)

  val device : t -> Memory.device
  val reads : t -> int
  (** Number of MMIO reads served — the use-case benches count these to
      verify sampling rates. *)

  val reset_reads : t -> unit
end

module Rx_fifo : sig
  (** An interrupt-driven receive FIFO — a CAN controller or radio seen
      from the software side.  The host environment injects frames; the
      device raises its IRQ line whenever data is pending.  MMIO layout:
      [base+0] read = frames pending, [base+4] read = pop the oldest
      frame (0 when empty). *)

  type t

  val create :
    Exception_engine.t -> name:string -> base:Word.t -> irq:int ->
    capacity:int -> t

  val device : t -> Memory.device

  val inject : t -> Word.t -> bool
  (** Deliver a frame from the outside world; [false] (and counted as
      dropped) when the FIFO is full.  Raises the IRQ line. *)

  val pending : t -> int
  val dropped : t -> int

  val received : t -> int
  (** Frames successfully injected. *)

  val irq : t -> int
  (** The line this device asserts. *)
end

module Watchdog : sig
  (** A memory-mapped watchdog timer, the hardware half of task
      supervision: software must {e kick} it before the countdown expires;
      a missed deadline raises the watchdog's IRQ line (the {e bite}) and
      the countdown re-arms for the next interval.

      MMIO register map (word registers at [base]):
      {v
        +0  KICK    write (any value): reset the countdown
                    read: cycles remaining until the bite
        +4  TIMEOUT read/write: countdown period in cycles
                    (writing also resets the countdown)
        +8  CTRL    write: 1 = enable, 0 = disable (both reset the countdown)
                    read: number of bites so far
      v}

      Like {!Timer}, the device is polled between instructions and latches
      a single IRQ per missed deadline however late it is served. *)

  type t

  val create :
    Exception_engine.t -> Cycles.t -> name:string -> base:Word.t ->
    irq:int -> timeout:int -> t
  (** Starts enabled with a full countdown of [timeout] cycles. *)

  val device : t -> Memory.device
  val poll : t -> unit

  val kick : t -> unit
  (** Host-side kick (equivalent to an MMIO write to [+0]) — used by
      firmware components supervising a task on its behalf. *)

  val enable : t -> unit
  val disable : t -> unit
  val timeout : t -> int
  val remaining : t -> int
  (** Cycles until the next bite (0 when disabled). *)

  val fired : t -> int
  (** Bites so far. *)

  val irq : t -> int
end

module Pmu : sig
  (** A memory-mapped performance-monitoring unit — the hardware counters
      a Siskiyou-class SoC would expose so software can observe where
      cycles go without trusting the OS.  Counters are live (no latch);
      readers wanting a torn-proof 64-bit value read HI, LO, HI and retry
      if HI moved — the classic free-running-counter protocol.

      MMIO register map (word registers at [base], 24 bytes):
      {v
        +0   CYCLES_LO   global cycle counter, low 32 bits
        +4   CYCLES_HI   global cycle counter, high bits
        +8   INSTRET_LO  guest instructions retired, low 32 bits
        +12  INSTRET_HI  guest instructions retired, high bits
        +16  CTXSW       context switches performed by the kernel
        +20  READS       PMU reads served so far (self-metering)
      v}

      Every read charges [read_cost] cycles (the platform wires
      [Cost_model.pmu_read]) {e before} sampling, so a CYCLES read
      observes its own cost.  All registers are read-only; writes are
      ignored.  The window is an ordinary MMIO device region, so the
      EA-MPU can restrict it to a chosen task with
      [Platform.restrict_mmio_to_task]. *)

  type t

  val create :
    Cycles.t ->
    name:string ->
    base:Word.t ->
    read_cost:int ->
    instructions:(unit -> int) ->
    context_switches:(unit -> int) ->
    t

  val size : int
  val device : t -> Memory.device

  val reads : t -> int
  (** MMIO reads served. *)
end

module Monotonic_counter : sig
  (** A hardware monotonic counter — the OPTIGA-style anti-rollback
      primitive: a non-volatile count that can be read and incremented
      but never decreased or reset, so firmware versioned below it is
      provably old.  The OTA installer bumps it to the activated image's
      version; any later offer with [version <= value] is a rollback.

      MMIO register map (word registers at [base], {!size} bytes):
      {v
        +0  VALUE   read: the count          write: refused (tamper, counted)
        +4  INCR    write (any value): +1    read: increments served
        +8  TAMPER  read: refused resets so far
                    write v < VALUE: refused (counted); else ignored
      v}

      Every read charges [read_cost] and every increment [increment_cost]
      (NV writes are slow) to the device clock.  The host-side API mirrors
      the MMIO one for firmware components holding the device directly. *)

  type t

  val create :
    Cycles.t ->
    name:string ->
    base:Word.t ->
    read_cost:int ->
    increment_cost:int ->
    ?initial:int ->
    unit ->
    t
  (** [initial] (default 0) seeds a fresh part; restoring a provisioned
      one goes through {!restore}. *)

  val size : int
  val device : t -> Memory.device

  val value : t -> int
  (** Host-side read (uncharged — tests and verifiers, not firmware). *)

  val increment : t -> int
  (** Add one (charging [increment_cost]) and return the new value. *)

  val advance_to : t -> int -> int
  (** Increment until the value reaches [target] (each step charged) —
      how an installer catches the counter up to an activated version.
      Already-reached targets are a no-op; the counter never moves down. *)

  val increments : t -> int
  val reset_attempts : t -> int
  (** Refused attempts to lower or overwrite the count. *)

  val save : t -> bytes
  (** Snapshot for sealed persistence (4 bytes, big-endian). *)

  val restore : t -> bytes -> (unit, string) result
  (** Restore a {!save} snapshot: the value only ever moves {e forward}
      (a stale snapshot is counted as a reset attempt and ignored, not
      applied).  Structurally invalid blobs are rejected. *)
end

module Console : sig
  type t

  val create : base:Word.t -> t
  (** A 4-byte write-only MMIO register; each write appends its low byte. *)

  val device : t -> Memory.device
  val contents : t -> string
  val clear : t -> unit
end
