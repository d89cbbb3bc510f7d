(** Task context save/restore.

    Frame layout on the task's stack, top (high addresses) first:
    {v
       EFLAGS        (pushed by the hardware exception engine)
       EIP           (pushed by the hardware exception engine)
       r0 … r14      (pushed by software, r14 at the lowest address)
    v}
    [saved_sp] points at the r14 slot.  Restoring pops r14 … r0 and then
    performs the hardware interrupt return (pop EIP, pop EFLAGS).

    {!baseline} implements the unmodified-FreeRTOS paths (Table 2/3
    baselines): the kernel itself stores and reloads the registers, with
    its own code identity — which is exactly why it cannot context-switch
    a secure task, whose stack it may not touch.  The TyTAN platform
    replaces these ops with the Int Mux for secure tasks. *)

open Tytan_machine

type ops = {
  save : Tcb.t -> Word.t array -> unit;
  (** [save tcb gprs] completes the context frame for [tcb] after the
      hardware pushed EFLAGS/EIP; [gprs] is the register snapshot taken at
      exception entry.  Sets [tcb.saved_sp]. *)
  restore : Tcb.t -> unit;
  (** Resume [tcb] from its saved frame (or start it if never run). *)
}

val frame_bytes : int
(** Bytes in a full frame: 2 hardware + 15 software words (68). *)

val build_initial_frame : Cpu.t -> Tcb.t -> unit
(** Prepare the task's stack "as if it had been executed before and was
    interrupted": EFLAGS with interrupts enabled, EIP = entry, zeroed
    registers.  Uses checked writes under the caller's code identity (task
    creation happens before the task's protection is enabled). *)

val build_initial_frame_raw :
  Cpu.t -> stack_top:Word.t -> entry:Word.t -> Word.t
(** Same as {!build_initial_frame} for code (the TyTAN loader) that
    prepares the stack before a TCB exists; returns the initial saved SP. *)

val save_frame : Cpu.t -> Tcb.t -> Word.t array -> unit
(** The raw frame store (no cycle charge) — building block for the
    Int Mux's secure save path. *)

val baseline : Cpu.t -> save_cost:int -> restore_cost:int -> ops
(** The unmodified-FreeRTOS context ops.  [save_cost] and [restore_cost]
    are the per-operation cycle charges (calibrated against Tables 2–3;
    the registers are really moved, the constants only set the cycle
    price). *)
