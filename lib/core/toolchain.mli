(** The TyTAN tool chain's secure-task wrapper.

    Every secure task begins with the same entry routine; "since the entry
    routine is similar for all secure tasks, it is automatically included
    by the TyTAN tool chain and does not need to be implemented by the
    task programmer".  The routine dispatches on the invocation reason the
    trusted software placed in the reason register (r13):

    - {!reason_start}: first invocation — jump to the task's [main] label;
    - {!reason_resume}: the task was interrupted earlier — pop the 15
      software-saved registers from the task's own stack and execute the
      dedicated interrupt-return instruction;
    - {!reason_message}: secure IPC delivery — the inbox address is in
      r12; call the task's [on_message] label, then signal completion with
      the IPC-done software interrupt.

    User code refers to the labels [main] (required) and [on_message]
    (optional; a default empty handler is provided). *)

open Tytan_machine

val reason_start : int
val reason_resume : int
val reason_message : int

val entry_stub_instructions : int
(** Instruction count of the generated stub (for size accounting — the
    paper notes secure tasks' entry routines "slightly increase" their
    memory consumption). *)

val secure_program :
  main:(Assembler.t -> unit) ->
  ?on_message:(Assembler.t -> unit) ->
  unit ->
  Assembler.program
(** Assemble a secure task: entry stub first (so the image's entry point
    is the stub), then the user's code.  [main] must define the label
    ["main"]; [on_message], if given, must define ["on_message"]. *)

val normal_program : main:(Assembler.t -> unit) -> Assembler.program
(** Assemble a normal task: no stub, entry at the ["main"] label the
    caller defines (normal tasks are restored by the OS, not by an entry
    routine). *)

val synthetic_secure :
  image_size:int -> reloc_count:int -> stack_size:int -> Tytan_telf.Telf.t
(** A well-formed schedulable secure task of exactly [image_size] bytes
    with exactly [reloc_count] relocations: the standard entry stub, a
    sleep loop, NOP padding, and relocated data words.  This is what the
    benchmark sweeps load when they need to control a secure task's memory
    size and relocation count precisely (Tables 1, 4, 5, 7).
    @raise Invalid_argument if [image_size] is too small to fit. *)
