(** Task control blocks.

    A task occupies one contiguous memory allocation laid out as
    [code+data | bss | inbox | stack]; the TCB records the pieces the
    kernel needs.  Secure tasks ([secure = true]) additionally carry the
    TyTAN protections: the OS cannot touch their memory, and they are
    entered only through their entry routine. *)

open Tytan_machine

type block_reason =
  | Delayed_until of int  (** wake at this tick *)
  | Queue_send_wait of int  (** blocked sending to queue [id] *)
  | Queue_recv_wait of int  (** blocked receiving from queue [id] *)
  | Ipc_reply_wait  (** synchronous IPC sender awaiting receiver *)

type state =
  | Ready
  | Running
  | Blocked of block_reason
  | Suspended
  | Terminated

type t = {
  id : int;  (** kernel-local numeric handle (not the TyTAN identity) *)
  name : string;
  mutable priority : int;  (** higher number = higher priority *)
  mutable state : state;
  secure : bool;
  region_base : Word.t;  (** base of the whole task allocation *)
  region_size : int;
  code_base : Word.t;
  code_size : int;
  entry : Word.t;  (** absolute entry address *)
  stack_base : Word.t;
  stack_size : int;
  inbox_base : Word.t;  (** 0 when the task has no inbox *)
  mutable saved_sp : Word.t;  (** top of the saved context frame *)
  mutable started : bool;  (** false until first dispatched *)
  mutable activations : int;  (** times dispatched (for rate checks) *)
  mutable wake_tick : int;
  mutable timeout_hit : bool;  (** last blocking op timed out *)
  mutable cpu_quota : int option;
  (** execution-time bound: maximum {e consecutive} full time slices the
      task may consume without a voluntary syscall; [None] = unbounded.
      Enforcing this keeps a compromised task from starving lower
      priorities (paper §5: tasks are "bound in their use of system
      resources") *)
  mutable consecutive_slices : int;  (** slices burned since last syscall *)
  mutable live_frame : bool;
  (** true when the stack holds a context frame saved by an interrupt —
      the secure restore path must then go through the entry routine's
      resume branch rather than (re)starting the task.  Distinct from
      [started]: a task that was entered only for a message hand-off and
      then interrupted has a live frame but was never "started". *)
  mutable cycles_used : int;
  (** accumulated processor cycles (run-time statistics, as FreeRTOS's
      [vTaskGetRunTimeStats]) *)
  mutable dispatched_at : int;  (** clock reading at the last dispatch *)
  mutable ready_since : int;
  (** clock reading when the task last entered a ready list, or [-1]
      when it is not waiting — feeds the kernel's ready-queue wait
      (dispatch-latency) histogram *)
  mutable preemptions : int;
  (** times an interrupt arrival (tick or device IRQ) snatched the
      processor while this task was running *)
}

val make :
  id:int ->
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
  t

val stack_top : t -> Word.t
(** One past the highest stack byte (initial SP). *)

val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
