(** Priority-based pre-emptive scheduler state (FreeRTOS-style).

    One FIFO ready list per priority level; the dispatcher always runs the
    highest-priority ready task and round-robins within a level on each
    tick.  Delayed tasks sit on a wake list ordered by wake tick.

    This module owns the {e data structures and policy}; the kernel drives
    it from the tick and syscall paths and performs the actual context
    switches. *)

val priority_levels : int
(** Priorities 0 (lowest, idle) through [priority_levels - 1]. *)

type t

val create : ?clock:Tytan_machine.Cycles.t -> unit -> t
(** With a [clock], entering a ready list stamps the task's
    [ready_since] field (dispatch-latency telemetry); without one the
    stamp stays [-1]. *)

val tick_count : t -> int
val advance_tick : t -> unit

val current : t -> Tcb.t option
val set_current : t -> Tcb.t option -> unit

val add_ready : t -> Tcb.t -> unit
(** Append to its priority's ready list and mark it [Ready].
    @raise Invalid_argument if the priority is out of range. *)

val remove : t -> Tcb.t -> unit
(** Remove from any scheduler structure (ready or delayed); used by
    unload, suspend and termination.  The task's state is untouched. *)

val pick : t -> Tcb.t option
(** Highest-priority ready task (head of its FIFO), without removing it. *)

val take : t -> Tcb.t option
(** Like {!pick} but removes the task from its ready list. *)

val rotate : t -> priority:int -> unit
(** Move the head of a priority's ready list to the tail (round robin). *)

val delay_until : t -> Tcb.t -> wake_tick:int -> unit
(** Block the task (state [Delayed_until]) until the given tick. *)

val sleep_on : t -> Tcb.t -> wake_tick:int -> reason:Tcb.block_reason -> unit
(** Put the task on the wake list with an arbitrary blocking reason
    (queue timeouts); [wake_tick = max_int] never expires. *)

val wake_due : t -> Tcb.t list
(** Remove and return every delayed task whose wake tick has arrived.
    States are untouched — the kernel decides how each wakes (plain delay
    vs. queue timeout). *)

val ready_count : t -> int
val all_tasks : t -> Tcb.t list
(** Every task currently known to the scheduler structures. *)

val pp : Format.formatter -> t -> unit
