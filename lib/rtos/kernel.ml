open Tytan_machine
open Tytan_telemetry

exception Panic of string

let no_timeout = max_int

type t = {
  cpu : Cpu.t;
  sched : Scheduler.t;
  trace : Trace.t;
  tel : Telemetry.t;
  code_eip : Word.t;
  tick_irq : int;
  mutable ops : Context.ops;
  mutable swi_hook : swi:int -> gprs:Word.t array -> bool;
  mutable on_exit : Tcb.t -> unit;
  mutable tasks : Tcb.t list;
  mutable next_task_id : int;
  queues : (int, Rt_queue.t) Hashtbl.t;
  mutable next_queue_id : int;
  timers : Sw_timer.t;
  mutable idle : Tcb.t option;
  mutable context_switches : int;
  mutable faults : int;
  mutable on_quota_exceeded : Tcb.t -> unit;
  mutable quota_suspensions : int;
  irq_handlers : (int, unit -> unit) Hashtbl.t;
}

let create ?telemetry cpu ~code_eip ~tick_irq ~trace =
  {
    cpu;
    sched = Scheduler.create ~clock:(Cpu.clock cpu) ();
    trace;
    tel =
      (match telemetry with
      | Some tel -> tel
      | None -> Telemetry.create (Cpu.clock cpu));
    code_eip;
    tick_irq;
    ops = Context.baseline cpu ~save_cost:38 ~restore_cost:254;
    swi_hook = (fun ~swi:_ ~gprs:_ -> false);
    on_exit = (fun _ -> ());
    tasks = [];
    next_task_id = 1;
    queues = Hashtbl.create 8;
    next_queue_id = 0;
    timers = Sw_timer.create ();
    idle = None;
    context_switches = 0;
    faults = 0;
    on_quota_exceeded = (fun _ -> ());
    quota_suspensions = 0;
    irq_handlers = Hashtbl.create 4;
  }

let cpu t = t.cpu
let scheduler t = t.sched
let trace t = t.trace
let telemetry t = t.tel
let tick_count t = Scheduler.tick_count t.sched
let code_eip t = t.code_eip
let tick_irq t = t.tick_irq
let set_context_ops t ops = t.ops <- ops
let context_ops t = t.ops
let set_swi_hook t hook = t.swi_hook <- hook
let set_on_exit t f = t.on_exit <- f
let current t = Scheduler.current t.sched
let idle_task t = t.idle

let find_task_by_name t name =
  List.find_opt (fun tcb -> String.equal tcb.Tcb.name name) t.tasks

let all_tasks t = t.tasks
let context_switches t = t.context_switches
let faults t = t.faults

(* Frame register slots: the frame holds (from saved_sp upward)
   r14, r13, …, r0, EIP, EFLAGS — see Context.  Frame accesses are the
   OS's doing wherever they are called from (e.g. inside an Int Mux
   interrupt path), so they always run under the kernel's identity. *)
let frame_slot (tcb : Tcb.t) ~reg = Word.add tcb.saved_sp (4 * (14 - reg))

let set_frame_reg t tcb ~reg ~value =
  if reg < 0 || reg > 14 then invalid_arg "Kernel.set_frame_reg: bad register";
  Cpu.with_firmware t.cpu ~eip:t.code_eip (fun () ->
      Cpu.store32 t.cpu (frame_slot tcb ~reg) value)

(* --- Dispatching ------------------------------------------------------- *)

let restore_task t (tcb : Tcb.t) =
  tcb.state <- Tcb.Running;
  tcb.activations <- tcb.activations + 1;
  (* Ready-queue wait: cycles between entering a ready list and being
     handed the processor — the dispatch-latency distribution.  The idle
     task is dispatched without queueing and carries no stamp. *)
  if tcb.ready_since >= 0 then begin
    Telemetry.observe t.tel ~task:tcb.name ~component:"kernel" "ready_wait"
      (Cycles.now (Cpu.clock t.cpu) - tcb.ready_since);
    tcb.ready_since <- -1
  end;
  Telemetry.incr t.tel ~task:tcb.name ~component:"kernel" "dispatches";
  tcb.dispatched_at <- Cycles.now (Cpu.clock t.cpu);
  Scheduler.set_current t.sched (Some tcb);
  t.context_switches <- t.context_switches + 1;
  Trace.emitf t.trace ~source:"scheduler" "dispatch %s" tcb.name;
  (* The restore ops must see whether this is the first dispatch (a secure
     task is then entered with reason "start" rather than resumed from a
     saved frame), so [started] flips only afterwards. *)
  t.ops.restore tcb;
  tcb.started <- true

let dispatch t =
  match Scheduler.take t.sched with
  | Some tcb -> restore_task t tcb
  | None -> (
      match t.idle with
      | Some idle -> restore_task t idle
      | None -> raise (Panic "dispatch: no ready task and no idle task"))

let save_current t ~gprs =
  match Scheduler.current t.sched with
  | Some tcb when tcb.state = Tcb.Running ->
      let slice = Cycles.now (Cpu.clock t.cpu) - tcb.dispatched_at in
      tcb.cycles_used <- tcb.cycles_used + slice;
      Telemetry.add t.tel ~task:tcb.name ~component:"kernel" "run_cycles" slice;
      t.ops.save tcb gprs;
      tcb.live_frame <- true;
      (* A task that is still Running after the save was merely preempted:
         it goes back to the tail of its priority's ready list.  It stays
         recorded as current so syscall handlers can identify the caller;
         the next dispatch overwrites it. *)
      Scheduler.add_ready t.sched tcb
  | Some _ | None -> ()

(* Re-block the current task under a new state after its context was saved
   by [save_current] (which optimistically marked it Ready). *)
let reblock_current t (tcb : Tcb.t) f =
  Scheduler.remove t.sched tcb;
  f ()

(* --- Tick -------------------------------------------------------------- *)

let wake_one t (tcb : Tcb.t) =
  (match tcb.state with
  | Tcb.Blocked (Tcb.Queue_send_wait qid | Tcb.Queue_recv_wait qid) -> (
      match Hashtbl.find_opt t.queues qid with
      | Some q ->
          Rt_queue.drop_waiter q tcb;
          tcb.timeout_hit <- true;
          set_frame_reg t tcb ~reg:1 ~value:1
      | None -> ())
  | Tcb.Blocked (Tcb.Delayed_until _) -> ()
  | Tcb.Blocked Tcb.Ipc_reply_wait | Tcb.Ready | Tcb.Running | Tcb.Suspended
  | Tcb.Terminated -> ());
  Scheduler.add_ready t.sched tcb

let set_on_quota_exceeded t f = t.on_quota_exceeded <- f
let quota_suspensions t = t.quota_suspensions

(* A task preempted by the tick consumed its whole slice.  If it keeps
   doing so past its quota it is suspended — a runaway (or malicious)
   task cannot monopolise the processor indefinitely. *)
let enforce_cpu_quota t =
  match Scheduler.current t.sched with
  | Some tcb when tcb.Tcb.state = Tcb.Ready (* requeued by save_current *) -> (
      tcb.consecutive_slices <- tcb.consecutive_slices + 1;
      match tcb.cpu_quota with
      | Some quota when tcb.consecutive_slices > quota ->
          Trace.emitf t.trace ~source:"kernel"
            "task %s exceeded its CPU quota (%d consecutive slices): suspended"
            tcb.name quota;
          Scheduler.remove t.sched tcb;
          tcb.state <- Tcb.Suspended;
          tcb.consecutive_slices <- 0;
          t.quota_suspensions <- t.quota_suspensions + 1;
          t.on_quota_exceeded tcb
      | Some _ | None -> ())
  | Some _ | None -> ()

(* An interrupt arrival that found a task running (save_current requeued
   it as Ready) snatched the processor from it involuntarily. *)
let note_preemption t =
  match Scheduler.current t.sched with
  | Some tcb when tcb.Tcb.state = Tcb.Ready ->
      tcb.preemptions <- tcb.preemptions + 1;
      Telemetry.incr t.tel ~task:tcb.name ~component:"kernel" "preemptions"
  | Some _ | None -> ()

let service_tick t =
  let span = Telemetry.begin_span t.tel ~component:"kernel" "tick" in
  note_preemption t;
  enforce_cpu_quota t;
  Scheduler.advance_tick t.sched;
  List.iter (wake_one t) (Scheduler.wake_due t.sched);
  let fired = Sw_timer.fire_due t.timers ~now:(Scheduler.tick_count t.sched) in
  if fired > 0 then
    Trace.emitf t.trace ~source:"timer" "%d software timer(s) fired" fired;
  dispatch t;
  Telemetry.end_span t.tel span

let set_irq_handler t ~irq handler =
  if irq <= 0 || irq >= Exception_engine.swi_vector_base then
    invalid_arg "Kernel.set_irq_handler: IRQ line out of range";
  if irq = t.tick_irq then
    invalid_arg "Kernel.set_irq_handler: the tick line belongs to the kernel";
  Hashtbl.replace t.irq_handlers irq handler

(* Service a device IRQ: run the bound handler (if any), then dispatch.
   The interrupted context was already saved. *)
let service_irq t ~irq =
  let span = Telemetry.begin_span t.tel ~component:"kernel" "irq" in
  note_preemption t;
  (match Hashtbl.find_opt t.irq_handlers irq with
  | Some handler ->
      Trace.emitf t.trace ~source:"kernel" "irq %d" irq;
      handler ()
  | None -> Trace.emitf t.trace ~source:"kernel" "spurious irq %d" irq);
  dispatch t;
  Telemetry.end_span t.tel span

(* --- Queues ------------------------------------------------------------ *)

let create_queue t ~capacity =
  let id = t.next_queue_id in
  t.next_queue_id <- id + 1;
  Hashtbl.replace t.queues id (Rt_queue.create ~id ~capacity);
  id

let queue t id = Hashtbl.find_opt t.queues id

let queue_reply t tcb ~value ~status =
  set_frame_reg t tcb ~reg:0 ~value;
  set_frame_reg t tcb ~reg:1 ~value:status

let wake_tick_for t ~timeout =
  if timeout = no_timeout then max_int
  else Scheduler.tick_count t.sched + max 1 timeout

(* Complete a blocked queue operation of [waiter] with [value]. *)
let resume_waiter t (waiter : Tcb.t) ~value =
  Scheduler.remove t.sched waiter;
  queue_reply t waiter ~value ~status:0;
  Scheduler.add_ready t.sched waiter

(* Hand [value] straight to a receiver blocked on [q], if one waits. *)
let hand_to_receiver t q ~value =
  match Rt_queue.take_recv_waiter q with
  | Some receiver ->
      resume_waiter t receiver ~value;
      true
  | None -> false

let sys_queue_send t (tcb : Tcb.t) ~gprs =
  let qid = gprs.(0) and value = gprs.(1) and timeout = gprs.(2) in
  match Hashtbl.find_opt t.queues qid with
  | None -> queue_reply t tcb ~value:0 ~status:2
  | Some q ->
      if hand_to_receiver t q ~value then queue_reply t tcb ~value ~status:0
      else if not (Rt_queue.is_full q) then begin
        Rt_queue.push q value;
        queue_reply t tcb ~value ~status:0
      end
      else if timeout = 0 then queue_reply t tcb ~value ~status:1
      else
        reblock_current t tcb (fun () ->
            Rt_queue.add_send_waiter q tcb ~value;
            Scheduler.sleep_on t.sched tcb
              ~wake_tick:(wake_tick_for t ~timeout)
              ~reason:(Tcb.Queue_send_wait qid))

let sys_queue_recv t (tcb : Tcb.t) ~gprs =
  let qid = gprs.(0) and timeout = gprs.(2) in
  match Hashtbl.find_opt t.queues qid with
  | None -> queue_reply t tcb ~value:0 ~status:2
  | Some q ->
      if not (Rt_queue.is_empty q) then begin
        let value = Rt_queue.pop q in
        queue_reply t tcb ~value ~status:0;
        (* Space opened: admit one blocked sender, bounded work. *)
        match Rt_queue.take_send_waiter q with
        | Some (sender, pending) ->
            Rt_queue.push q pending;
            resume_waiter t sender ~value:pending
        | None -> ()
      end
      else if timeout = 0 then queue_reply t tcb ~value:0 ~status:1
      else
        reblock_current t tcb (fun () ->
            Rt_queue.add_recv_waiter q tcb;
            Scheduler.sleep_on t.sched tcb
              ~wake_tick:(wake_tick_for t ~timeout)
              ~reason:(Tcb.Queue_recv_wait qid))

(* Non-blocking post from interrupt context (deferred interrupt
   handling): deliver straight to a blocked receiver, else enqueue, else
   drop — bounded work, no caller to block. *)
let queue_post t ~queue_id ~value =
  match Hashtbl.find_opt t.queues queue_id with
  | None -> false
  | Some q ->
      if hand_to_receiver t q ~value then true
      else if Rt_queue.is_full q then false
      else begin
        Rt_queue.push q value;
        true
      end

(* --- Task lifecycle ----------------------------------------------------- *)

let terminate t (tcb : Tcb.t) =
  tcb.state <- Tcb.Terminated;
  Scheduler.remove t.sched tcb;
  Hashtbl.iter (fun _ q -> Rt_queue.drop_waiter q tcb) t.queues;
  if Scheduler.current t.sched = Some tcb then
    Scheduler.set_current t.sched None;
  Trace.emitf t.trace ~source:"kernel" "task %s terminated" tcb.name;
  t.on_exit tcb

let kill_task t tcb =
  let was_current = Scheduler.current t.sched = Some tcb in
  terminate t tcb;
  if was_current then dispatch t

let suspend_task t (tcb : Tcb.t) =
  let was_current = Scheduler.current t.sched = Some tcb in
  Scheduler.remove t.sched tcb;
  tcb.state <- Tcb.Suspended;
  if was_current then begin
    Scheduler.set_current t.sched None;
    dispatch t
  end

let set_priority t (tcb : Tcb.t) ~priority =
  if priority < 0 || priority >= Scheduler.priority_levels then
    invalid_arg "Kernel.set_priority: out of range";
  (* Re-file the task under its new level if it sits on a ready list. *)
  let requeue = tcb.state = Tcb.Ready in
  if requeue then Scheduler.remove t.sched tcb;
  tcb.priority <- priority;
  if requeue then Scheduler.add_ready t.sched tcb

let cpu_usage t =
  let total = Cycles.now (Cpu.clock t.cpu) in
  (* The idle task is registered in [tasks] at creation, so the list
     already covers it. *)
  List.map
    (fun (tcb : Tcb.t) ->
      (tcb, if total = 0 then 0.0 else float_of_int tcb.cycles_used /. float_of_int total))
    t.tasks

let resume_task t (tcb : Tcb.t) =
  match tcb.state with
  | Tcb.Suspended -> Scheduler.add_ready t.sched tcb
  | Tcb.Ready | Tcb.Running | Tcb.Blocked _ | Tcb.Terminated ->
      invalid_arg "Kernel.resume_task: task is not suspended"

(* --- Syscalls ----------------------------------------------------------- *)

let service_swi t ~swi ~gprs =
  match Scheduler.current t.sched with
  | None ->
      (* Only a running task can raise an SWI. *)
      raise (Panic "SWI with no current task")
  | Some tcb ->
      (* A syscall is voluntary cooperation: reset the runaway counter. *)
      tcb.consecutive_slices <- 0;
      Trace.emitf t.trace ~source:"kernel" "swi %d from %s" swi tcb.name;
      let span =
        Telemetry.begin_span t.tel ~task:tcb.name ~component:"kernel" "swi"
      in
      (match swi with
      | 0 ->
          (* yield: context already saved and task re-queued *)
          dispatch t
      | 1 ->
          terminate t tcb;
          dispatch t
      | 2 ->
          let ticks = max 1 gprs.(0) in
          reblock_current t tcb (fun () ->
              Scheduler.delay_until t.sched tcb
                ~wake_tick:(Scheduler.tick_count t.sched + ticks));
          dispatch t
      | 8 ->
          sys_queue_send t tcb ~gprs;
          dispatch t
      | 9 ->
          sys_queue_recv t tcb ~gprs;
          dispatch t
      | 10 ->
          reblock_current t tcb (fun () -> tcb.state <- Tcb.Suspended);
          dispatch t
      | other ->
          if t.swi_hook ~swi:other ~gprs then ()
          else begin
            Trace.emitf t.trace ~source:"kernel" "unknown swi %d: killing %s"
              other tcb.name;
            terminate t tcb;
            dispatch t
          end);
      Telemetry.end_span t.tel span

(* --- Vector installation (unmodified-FreeRTOS configuration) ----------- *)

let in_firmware t f = Cpu.with_firmware t.cpu ~eip:t.code_eip f

let install_vectors t =
  let engine = Cpu.engine t.cpu in
  let tick_handler () =
    in_firmware t (fun () ->
        let gprs = Regfile.all_gprs (Cpu.regs t.cpu) in
        save_current t ~gprs;
        service_tick t)
  in
  let addr =
    Exception_engine.register_firmware engine ~name:"kernel-tick" tick_handler
  in
  Exception_engine.set_vector engine t.tick_irq addr;
  for irq = 0 to Exception_engine.swi_vector_base - 1 do
    if irq <> t.tick_irq then begin
      let handler () =
        in_firmware t (fun () ->
            let gprs = Regfile.all_gprs (Cpu.regs t.cpu) in
            save_current t ~gprs;
            service_irq t ~irq)
      in
      let addr =
        Exception_engine.register_firmware engine
          ~name:(Printf.sprintf "kernel-irq-%d" irq)
          handler
      in
      Exception_engine.set_vector engine irq addr
    end
  done;
  for swi = 0 to 15 do
    let handler () =
      in_firmware t (fun () ->
          let gprs = Regfile.all_gprs (Cpu.regs t.cpu) in
          save_current t ~gprs;
          service_swi t ~swi ~gprs)
    in
    let addr =
      Exception_engine.register_firmware engine
        ~name:(Printf.sprintf "kernel-swi-%d" swi)
        handler
    in
    Exception_engine.set_vector engine (Exception_engine.swi_vector_base + swi) addr
  done

(* --- Creation / boot ---------------------------------------------------- *)

let create_task t ~name ~priority ~secure ~region_base ~region_size ~code_base
    ~code_size ~entry ~stack_base ~stack_size ~inbox_base
    ?(auto_ready = true) ?(build_frame = true) ?(initial_sp = 0) () =
  let id = t.next_task_id in
  t.next_task_id <- id + 1;
  let tcb =
    Tcb.make ~id ~name ~priority ~secure ~region_base ~region_size ~code_base
      ~code_size ~entry ~stack_base ~stack_size ~inbox_base
  in
  if build_frame then
    in_firmware t (fun () -> Context.build_initial_frame t.cpu tcb)
  else tcb.saved_sp <- initial_sp;
  t.tasks <- t.tasks @ [ tcb ];
  if auto_ready then Scheduler.add_ready t.sched tcb;
  Trace.emitf t.trace ~source:"kernel" "created %s (id %d)" name id;
  tcb

let init_idle t ~code_base ~stack_base ~stack_size =
  let tcb =
    create_task t ~name:"idle" ~priority:0 ~secure:false
      ~region_base:stack_base ~region_size:stack_size ~code_base
      ~code_size:Isa.width ~entry:code_base ~stack_base ~stack_size
      ~inbox_base:0 ~auto_ready:false ()
  in
  Scheduler.remove t.sched tcb;
  t.idle <- Some tcb

let arm_timer t ~in_ticks ?period f =
  Sw_timer.arm t.timers ~at_tick:(Scheduler.tick_count t.sched + in_ticks) ?period f

let fault_handler t (violation : Access.violation) =
  t.faults <- t.faults + 1;
  Trace.emitf t.trace ~source:"fault" "%a" Access.pp_violation violation;
  match Scheduler.current t.sched with
  | Some tcb
    when violation.eip >= tcb.code_base
         && violation.eip < Word.add tcb.code_base tcb.code_size ->
      in_firmware t (fun () ->
          terminate t tcb;
          dispatch t)
  | Some _ | None ->
      raise
        (Panic
           (Format.asprintf "access violation outside the current task: %a"
              Access.pp_violation violation))

let start t =
  if t.idle = None then raise (Panic "start: no idle task configured");
  Cpu.set_fault_handler t.cpu (fault_handler t);
  in_firmware t (fun () -> dispatch t)
