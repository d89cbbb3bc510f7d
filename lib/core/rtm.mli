(** The Root of Trust for Measurement (RTM) task.

    The RTM computes each task's identity: the SHA-1 digest (truncated to
    64 bits) of the task's position-independent binary — header metadata
    plus the image with relocation {e reverted}, so the measurement does
    not depend on where the task happens to be loaded.  To meet real-time
    requirements, measurement is interruptible: it proceeds one 64-byte
    block per {!step_measure} call, and the measured task cannot run (it
    is not yet scheduled) nor be modified (the EA-MPU rules are already
    installed) while it is measured.

    The RTM also maintains the list of identities and memory locations of
    all loaded tasks — the directory the IPC proxy uses to resolve
    receivers and authenticate senders. *)

open Tytan_machine
open Tytan_rtos
open Tytan_telf

type entry = {
  id : Task_id.t;
  tcb : Tcb.t;
  base : Word.t;  (** load base of the task's allocation *)
  telf : Telf.t;  (** binary metadata (sizes, relocation table) *)
  slots : int list;  (** EA-MPU slots owned by this task *)
  provider : string;  (** stakeholder that supplied the task *)
}

type t

val create :
  ?telemetry:Tytan_telemetry.Telemetry.t -> Cpu.t -> code_eip:Word.t -> t
(** [telemetry] (default: a fresh disabled registry) records one
    ["rtm.measure"] span per measurement — opened by {!start_measure},
    closed when {!step_measure} completes — and a measurement counter. *)

val code_eip : t -> Word.t

val identity_of_telf : Telf.t -> Task_id.t
(** The reference identity a verifier computes from the distributed
    binary: SHA-1 over the canonical header (entry and section sizes) and
    the position-independent image.  {!measure} of a correctly loaded task
    yields exactly this value. *)

(** {2 Measurement} *)

type job
(** An in-progress interruptible measurement. *)

val start_measure : t -> base:Word.t -> telf:Telf.t -> job
(** Snapshot the loaded image (reading it under the RTM's identity),
    revert its relocation, and charge the revert cost. *)

val step_measure : t -> job -> [ `More | `Done of Task_id.t ]
(** Hash one block, charging {!Cost_model.rtm_per_block}. *)

val measure : t -> base:Word.t -> telf:Telf.t -> Task_id.t
(** Run a whole measurement without yielding (benchmarks; also the
    non-interruptible-loader ablation). *)

(** {2 Task directory} *)

val register : t -> entry -> unit

val unregister : t -> Task_id.t -> unit
(** Remove every entry with this identity. *)

val unregister_tcb : t -> Tcb.t -> unit
(** Remove one specific task's entry.  Two instances of the same binary
    share an identity (that is the design — the identity names the
    code), so unloading one of them must not evict the other from the
    directory. *)

val find : t -> Task_id.t -> entry option
val find_by_eip : t -> Word.t -> entry option
(** Which loaded task owns this code address — sender identification for
    the IPC proxy. *)

val find_by_tcb : t -> Tcb.t -> entry option
val all : t -> entry list
val measurements : t -> int
(** Completed measurements (statistics). *)
