(** The FreeRTOS-like kernel.

    The kernel's logic runs host-side ("firmware") but its code identity is
    a real region in simulated memory, so the EA-MPU governs its accesses
    like anybody else's — in particular, the unmodified (baseline) kernel
    {e cannot} save or restore a secure task's context, because no rule
    grants the OS access to a secure task's stack.  That is exactly the gap
    the TyTAN Int Mux fills.

    {2 Syscall ABI (software interrupts)}

    | SWI | service        | arguments (registers)                        |
    |-----|----------------|----------------------------------------------|
    | 0   | yield          | —                                            |
    | 1   | exit           | —                                            |
    | 2   | delay          | r0 = ticks                                   |
    | 8   | queue_send     | r0 = queue id, r1 = value, r2 = timeout      |
    | 9   | queue_recv     | r0 = queue id, r2 = timeout                  |
    | 10  | suspend self   | —                                            |

    Queue results come back in r0 (value) and r1 (status: 0 = ok,
    1 = timeout/full/empty).  A timeout of {!no_timeout} blocks forever.
    SWIs 3–7 and 12 are reserved for the TyTAN trusted services, which
    claim them through {!set_swi_hook}; an unclaimed SWI terminates the
    calling task.

    Queues are an OS service for {e normal} tasks (the kernel writes
    results into the caller's saved frame, which it may not do for a
    secure task); secure tasks communicate through TyTAN's secure IPC. *)

open Tytan_machine

exception Panic of string
(** A trusted component or the kernel itself performed a denied access or
    reached an impossible state — a platform-fatal condition, unlike a
    task fault (which just kills the task). *)

type t

val create :
  ?telemetry:Tytan_telemetry.Telemetry.t ->
  Cpu.t -> code_eip:Word.t -> tick_irq:int -> trace:Trace.t -> t
(** [code_eip] is an address inside the kernel's code region — the
    identity under which kernel firmware accesses memory.  [telemetry]
    (default: a fresh disabled registry) receives the kernel's spans and
    metrics: tick/irq/swi service spans, per-task dispatch and
    preemption counters, run-cycle totals and the ready-queue wait
    histogram. *)

val cpu : t -> Cpu.t
val scheduler : t -> Scheduler.t
val trace : t -> Trace.t
val telemetry : t -> Tytan_telemetry.Telemetry.t
val tick_count : t -> int
val code_eip : t -> Word.t
val tick_irq : t -> int
val no_timeout : int

val set_context_ops : t -> Context.ops -> unit
(** Replace the context save/restore implementation (TyTAN installs
    secure-aware ops built on the Int Mux). *)

val context_ops : t -> Context.ops

val set_swi_hook : t -> (swi:int -> gprs:Word.t array -> bool) -> unit
(** Extension point for trusted services.  The hook sees every SWI the
    kernel does not implement, with the caller's register snapshot, after
    the caller's context has been saved; it returns [true] if it serviced
    the call.  It must leave scheduling consistent (the kernel dispatches
    afterwards unless the hook already transferred control). *)

val set_on_exit : t -> (Tcb.t -> unit) -> unit
(** Called when a task terminates (exit, kill, fault) — the TyTAN loader
    reclaims memory and protection rules from here. *)

val install_vectors : t -> unit
(** Point the tick IRQ and all SWI vectors at plain kernel handlers
    (the {e unmodified FreeRTOS} configuration).  The TyTAN platform
    instead routes vectors through the Int Mux, which calls
    {!service_tick}/{!service_swi} after securely saving context. *)

val service_tick : t -> unit
(** Tick bookkeeping (wake delayed tasks, fire software timers, round
    robin) followed by a dispatch.  Assumes the interrupted context is
    already saved. *)

val service_swi : t -> swi:int -> gprs:Word.t array -> unit
(** Service a syscall (assumes saved context) and dispatch. *)

val save_current : t -> gprs:Word.t array -> unit
(** Save the running task's context through the installed ops (no-op if
    nothing is running). *)

val dispatch : t -> unit
(** Pick the highest-priority ready task (or idle) and restore it. *)

(** {2 Task management (host API used by loaders, drivers and tests)} *)

val create_task :
  t ->
  name:string ->
  priority:int ->
  secure:bool ->
  region_base:Word.t ->
  region_size:int ->
  code_base:Word.t ->
  code_size:int ->
  entry:Word.t ->
  stack_base:Word.t ->
  stack_size:int ->
  inbox_base:Word.t ->
  ?auto_ready:bool ->
  ?build_frame:bool ->
  ?initial_sp:Word.t ->
  unit ->
  Tcb.t
(** Register a task and prepare its initial stack frame.  With
    [auto_ready] (default true) the task immediately joins the ready
    list — the paper's step (6), "the OS is notified to schedule t".
    The TyTAN loader prepares a secure task's stack {e before} enabling
    its protection (the kernel could not do it afterwards) and passes
    [~build_frame:false] with the prepared [initial_sp]. *)

val init_idle : t -> code_base:Word.t -> stack_base:Word.t -> stack_size:int -> unit
(** Create the idle task (a guest spin loop at [code_base]); must be done
    before {!start}. *)

val idle_task : t -> Tcb.t option

val start : t -> unit
(** Install the fault handler and dispatch the first task.  After [start],
    drive the machine with {!Cpu.run}. *)

val current : t -> Tcb.t option
val find_task_by_name : t -> string -> Tcb.t option
val all_tasks : t -> Tcb.t list

val suspend_task : t -> Tcb.t -> unit
(** Keep the task loaded but stop scheduling it (paper: "a list of tasks
    that are loaded but should not be executed at the moment"). *)

val resume_task : t -> Tcb.t -> unit

val set_priority : t -> Tcb.t -> priority:int -> unit
(** Change a task's priority at runtime (FreeRTOS [vTaskPrioritySet]);
    takes effect at the next scheduling decision. *)

val cpu_usage : t -> (Tcb.t * float) list
(** Run-time statistics: every known task (idle included) with its share
    of all elapsed cycles. *)

val kill_task : t -> Tcb.t -> unit

val set_frame_reg : t -> Tcb.t -> reg:int -> value:Word.t -> unit
(** Write a register slot of a saved context frame (syscall return
    values).  Subject to EA-MPU checks under the kernel's identity. *)

(** {2 Device interrupts (deferred handling)} *)

val set_irq_handler : t -> irq:int -> (unit -> unit) -> unit
(** Bind a kernel-context handler to a hardware IRQ line (1–15; line 0
    is the tick).  The handler runs after the interrupted context is
    saved and must be short and bounded — typically it drains a device
    FIFO into an RT queue with {!queue_post}. *)

val service_irq : t -> irq:int -> unit
(** Run the bound handler for a line (assumes saved context) and
    dispatch — the entry point the Int Mux calls for device IRQs. *)

val queue_post : t -> queue_id:int -> value:Word.t -> bool
(** Non-blocking send for interrupt context: wakes a blocked receiver or
    enqueues; [false] if the queue is unknown or full (the datum is
    dropped, as real deferred handlers do under overload). *)

(** {2 Queues} *)

val create_queue : t -> capacity:int -> int
(** Returns the queue id. *)

val queue : t -> int -> Rt_queue.t option

(** {2 Software timers} *)

val arm_timer : t -> in_ticks:int -> ?period:int -> (unit -> unit) -> Sw_timer.id

(** {2 Execution-time bounding} *)

val set_on_quota_exceeded : t -> (Tcb.t -> unit) -> unit
(** Called when a task is suspended for exceeding its
    {!Tcb.t.cpu_quota} (set the field directly on the TCB). *)

val quota_suspensions : t -> int

(** {2 Statistics} *)

val context_switches : t -> int
val faults : t -> int
