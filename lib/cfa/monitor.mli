(** The device-side CFA component.

    One monitor per platform: it owns the CPU's [on_branch] hook and a
    protected log ring per watched task.  Every control-flow event whose
    source or target lies in a watched task's code region is charged
    {!Tytan_core.Cost_model.cfa_log_event}, written to the task's ring
    in simulated memory {e under the Int Mux's code identity} (the
    EA-MPU grant names the Int Mux region as the only writer — a task
    that scribbles on its own log faults), and folded into the
    hash-chained {!Log}.

    Addresses are normalised to code-region offsets before logging, so
    a verifier holding only the reference binary can replay them; a
    source outside the task (a foreign task jumping in) normalises to
    an out-of-text offset, which the replay flags unless the target is
    the secure entry point. *)

open Tytan_eampu
open Tytan_rtos
open Tytan_core

type t
type session

val create : Platform.t -> t
(** No hook is installed until the first {!watch}; a platform that never
    watches a task pays nothing. *)

val watch :
  t -> tcb:Tcb.t -> ?capacity:int -> unit -> (session, string) result
(** Start logging a loaded task (it must be in the RTM directory).
    Allocates the log ring from the task heap and installs the EA-MPU
    grant.  Default ring capacity 1024 edges. *)

val unwatch : t -> session -> unit
(** Stop logging: remove the EA-MPU rule, free the ring, and — when no
    session remains — clear the CPU hook entirely. *)

val find : t -> id:Task_id.t -> session option
val log : session -> Log.t

val ring_region : session -> Region.t
(** Where the protected ring lives (for tests probing the EA-MPU rule). *)

val events_logged : t -> int
(** Events recorded across all sessions. *)

val attest : t -> session -> nonce:bytes -> Attestation.cfa_report option
(** Snapshot the session's log into a MACed report via the Remote Attest
    component. *)

val responder :
  t -> id:Task_id.t -> nonce:bytes -> Attestation.cfa_report option
(** The device network agent's CFA answer: report for a watched task,
    [None] (→ refusal) otherwise.  Shaped for
    [Tytan_netsim.Cosim.set_cfa_responder]. *)
