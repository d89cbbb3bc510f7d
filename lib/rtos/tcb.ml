open Tytan_machine

type block_reason =
  | Delayed_until of int
  | Queue_send_wait of int
  | Queue_recv_wait of int
  | Ipc_reply_wait

type state =
  | Ready
  | Running
  | Blocked of block_reason
  | Suspended
  | Terminated

type t = {
  id : int;
  name : string;
  mutable priority : int;
  mutable state : state;
  secure : bool;
  region_base : Word.t;
  region_size : int;
  code_base : Word.t;
  code_size : int;
  entry : Word.t;
  stack_base : Word.t;
  stack_size : int;
  inbox_base : Word.t;
  mutable saved_sp : Word.t;
  mutable started : bool;
  mutable activations : int;
  mutable wake_tick : int;
  mutable timeout_hit : bool;
  mutable cpu_quota : int option;
  mutable consecutive_slices : int;
  mutable live_frame : bool;
  mutable cycles_used : int;
  mutable dispatched_at : int;
  mutable ready_since : int;
  mutable preemptions : int;
}

let make ~id ~name ~priority ~secure ~region_base ~region_size ~code_base
    ~code_size ~entry ~stack_base ~stack_size ~inbox_base =
  if priority < 0 then invalid_arg "Tcb.make: negative priority";
  if stack_size < 128 then invalid_arg "Tcb.make: stack too small";
  {
    id;
    name;
    priority;
    state = Ready;
    secure;
    region_base;
    region_size;
    code_base;
    code_size;
    entry;
    stack_base;
    stack_size;
    inbox_base;
    saved_sp = Word.add stack_base stack_size;
    started = false;
    activations = 0;
    wake_tick = 0;
    timeout_hit = false;
    cpu_quota = None;
    consecutive_slices = 0;
    live_frame = false;
    cycles_used = 0;
    dispatched_at = 0;
    ready_since = -1;
    preemptions = 0;
  }

let stack_top t = Word.add t.stack_base t.stack_size

let pp_state ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Running -> Format.pp_print_string ppf "running"
  | Blocked (Delayed_until n) -> Format.fprintf ppf "delayed(until %d)" n
  | Blocked (Queue_send_wait q) -> Format.fprintf ppf "q%d-send-wait" q
  | Blocked (Queue_recv_wait q) -> Format.fprintf ppf "q%d-recv-wait" q
  | Blocked Ipc_reply_wait -> Format.pp_print_string ppf "ipc-reply-wait"
  | Suspended -> Format.pp_print_string ppf "suspended"
  | Terminated -> Format.pp_print_string ppf "terminated"

let pp ppf t =
  Format.fprintf ppf "@[<h>task#%d %S prio=%d %s%a@]" t.id t.name t.priority
    (if t.secure then "secure " else "")
    pp_state t.state
