(** CPU register file: 16 general-purpose registers, EIP and EFLAGS.

    Register conventions used by the toolchain:
    - [r0]–[r11] general purpose ([r0]–[r9] carry IPC message payloads,
      matching the paper's register-based message transfer);
    - [r12] scratch for the entry routine;
    - [r13] invocation-reason register set by the trusted Int Mux;
    - [r14] link register (return address of [CALL]);
    - [r15] stack pointer.

    EFLAGS bits: bit 0 = zero, bit 1 = negative, bit 2 = carry,
    bit 3 = interrupt-enable. *)

type t

val sp : int
(** Index of the stack pointer register (15). *)

val lr : int
(** Index of the link register (14). *)

val reason : int
(** Index of the invocation-reason register (13). *)

val create : unit -> t
val copy : t -> t

val get : t -> int -> Word.t
val set : t -> int -> Word.t -> unit

val eip : t -> Word.t
val set_eip : t -> Word.t -> unit

val eflags : t -> Word.t
val set_eflags : t -> Word.t -> unit

val zero_flag : t -> bool
val negative_flag : t -> bool
val interrupts_enabled : t -> bool

val set_zero : t -> bool -> unit
val set_negative : t -> bool -> unit
val set_carry : t -> bool -> unit
val set_interrupts : t -> bool -> unit

val wipe_gprs : t -> unit
(** Clear every general-purpose register (the Int Mux does this before
    handing control to an untrusted interrupt handler). *)

val all_gprs : t -> Word.t array
(** A snapshot copy of [r0]–[r15]. *)

val restore_gprs : t -> Word.t array -> unit

val pp : Format.formatter -> t -> unit
