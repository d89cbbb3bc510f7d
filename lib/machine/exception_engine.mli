(** Hardware exception engine: interrupt lines, the in-memory IDT, and
    firmware (host-implemented) handler dispatch.

    As in the paper, interrupt handlers are selected through an interrupt
    descriptor table (IDT) that lives in simulated memory — so its
    integrity can be protected by an EA-MPU rule — while the register that
    points to the IDT is fixed in hardware and cannot be retargeted.

    Handler addresses in the {e firmware window} ([0xFFFF_0000] and up)
    dispatch to registered OCaml closures.  This models trusted software
    components (and the OS kernel) whose logic runs host-side while their
    code regions, identities and cycle costs remain first-class in the
    simulation.  Any other handler address is executed as guest code.

    Vectors 0–15 are hardware IRQ lines; vectors 16–31 are reached by the
    [SWI n] instruction (vector [16 + n]). *)

type t

val entry_size : int
(** Bytes per IDT entry (4). *)

val idt_size : int
(** 32 vectors times [entry_size]. *)

val swi_vector_base : int
(** First vector reachable by [SWI] (16). *)

val create : Memory.t -> idt_base:Word.t -> t
(** The IDT is zero-initialised at [idt_base]. *)

val idt_base : t -> Word.t

val set_vector : t -> int -> Word.t -> unit
(** Write IDT entry [n] (a raw memory write: during boot the IDT is not
    yet protected; afterwards the EA-MPU guards the page and software must
    go through checked stores). *)

val vector : t -> int -> Word.t

val register_firmware : t -> name:string -> (unit -> unit) -> Word.t
(** Allocate a fresh firmware address bound to the closure; the closure
    runs when an interrupt dispatches to that address. *)

val firmware_handler : t -> Word.t -> (unit -> unit) option
val firmware_name : t -> Word.t -> string option

val raise_irq : t -> int -> unit
(** Assert hardware IRQ line [n] (0–15). *)

val pending_irq : t -> int option
(** Highest-priority (lowest-numbered) asserted line. *)

val ack_irq : t -> int -> unit

val set_origin : t -> Word.t -> unit
val origin : t -> Word.t
(** EIP at which the most recent exception was taken.  The IPC proxy reads
    this to identify the {e sender} of a software interrupt — the
    "origin of the interrupt obtained from the hardware". *)

val entry_cost : int
(** Cycles charged by the hardware to take an exception (save EIP and
    EFLAGS to the interrupted stack, fetch the vector). *)
