(** The simulated in-order 32-bit core.

    The CPU fetches, decodes and executes instructions from simulated
    memory, charging every instruction's cycle cost to the global clock.
    Every fetch, load and store is routed through a pluggable protection
    hook — this is where the EA-MPU attaches — and a denied access is
    delivered to the installed fault handler (the OS kills the offending
    task) or re-raised.

    {2 Code identity}

    Protection decisions are {e execution-aware}: they depend on the
    address of the code performing the access.  For guest instructions
    that is the instruction's own address.  Trusted components and the OS
    kernel execute host-side (firmware); they run inside
    {!with_firmware}, which attributes their accesses to the component's
    code region, so the EA-MPU governs trusted software and the OS through
    exactly the same mechanism as tasks.

    {2 Interrupts}

    Between instructions, a pending IRQ (when EFLAGS.IF is set) makes the
    hardware push EFLAGS and EIP onto the current stack, clear IF, and
    transfer control through the IDT.  The [SWI n] instruction enters
    vector [16 + n] the same way.  The pre-exception EIP is latched in the
    exception engine as the interrupt's {e origin}. *)

type t

type status =
  | Running
  | Halted

type check =
  eip:Word.t -> addr:Word.t -> size:int -> kind:Access.kind -> unit
(** Protection hook; deny by raising {!Access.Violation}. *)

(** How a control transfer happened — the event vocabulary of the
    control-flow-attestation log (lib/cfa). *)
type branch_kind =
  | Direct_jump  (** [Jmp] *)
  | Cond_taken  (** [Jz]/[Jnz]/[Jlt]/[Jge], only when taken *)
  | Indirect_jump  (** [Jmpr] *)
  | Direct_call  (** [Call] *)
  | Indirect_call  (** [Callr] *)
  | Return  (** [Ret] through the link register *)
  | Swi_entry  (** [Swi n]; the event's [dst] is [n], not an address *)
  | Iret_return  (** [Iret]; [dst] is the popped resume address *)

val branch_kind_code : branch_kind -> int
(** Stable wire encoding, [0..7]. *)

val branch_kind_of_code : int -> branch_kind option

type branch_hook = src:Word.t -> dst:Word.t -> kind:branch_kind -> unit

val create : Memory.t -> Cycles.t -> Exception_engine.t -> t

val set_on_branch : t -> branch_hook -> unit
(** Install the control-flow observer, called after every transferring
    instruction retires (taken branches only; a fall-through conditional
    is silent).  Off by default; when no hook is installed the hot
    fetch/execute path pays nothing — one immediate field test, no
    allocation, no cycles.  Hardware-initiated transfers (interrupt
    entry, host-side dispatch) are {e not} reported: the hook sees what
    the {e guest program} did, which is what control-flow attestation
    must vouch for. *)

val clear_on_branch : t -> unit
val branch_hook_installed : t -> bool

val instructions_retired : t -> int
(** Guest instructions retired since creation — the PMU's INSTRET
    counter.  Firmware (host-side) work retires no instructions. *)

val mem : t -> Memory.t
val regs : t -> Regfile.t
val clock : t -> Cycles.t
val engine : t -> Exception_engine.t

val set_check : t -> check -> unit
(** Install the protection hook (default: allow everything). *)

val set_fault_handler : t -> (Access.violation -> unit) -> unit
(** Install the fault handler invoked when an access is denied during
    instruction execution.  Without one, the violation propagates as an
    exception. *)

val halted : t -> bool
val halt : t -> unit

(** {2 Checked memory access}

    These apply the protection hook with the current code identity and are
    used both by executing instructions and by firmware services. *)

val load32 : t -> Word.t -> Word.t
val store32 : t -> Word.t -> Word.t -> unit

val load_bytes : t -> Word.t -> int -> bytes
val store_bytes : t -> Word.t -> bytes -> unit

val with_firmware : t -> eip:Word.t -> (unit -> 'a) -> 'a
(** [with_firmware cpu ~eip f] runs [f] with memory accesses attributed to
    code address [eip] (a trusted component's code region). *)

(** {2 Stack and interrupt plumbing (used by the kernel)} *)

val push_word : t -> Word.t -> unit

val interrupt_return : t -> unit
(** Pop EIP and EFLAGS from the current stack — what a hardware interrupt
    return does.  Firmware handlers use this to resume the interrupted
    context in place.  The popped EIP receives a {!grant_resume}. *)

val grant_resume : t -> Word.t -> unit
(** Exempt the next instruction fetch, when it lands exactly on the given
    address, from the protection hook.  This models the hardware
    interrupt-return path: resuming an interrupted task mid-body is not an
    entry-point violation.  The grant is consumed by the next fetch. *)

val step : t -> status
(** Execute (at most) one instruction, after servicing at most one pending
    interrupt. *)

val run : t -> until_cycles:int -> poll:(unit -> unit) -> status
(** Step repeatedly, calling [poll] between instructions (device models
    fire IRQs from there), until the global clock reaches [until_cycles]
    or the core halts. *)
