open Tytan_machine
open Tytan_rtos
open Tytan_core

type t = {
  platform : Platform.t;
  kernel : Kernel.t;
  mem : Memory.t;
  engine : Exception_engine.t;
  trace : Trace.t;
  tick_period : int;
  rng : Fault_plan.Prng.t;
  mutable queue : Fault_plan.event list;  (* sorted by tick *)
  mutable counts : (string * int) list;
  (* Live glitch state consulted by the memory hooks. *)
  mutable write_glitch_left : int;
  mutable write_glitch_bit : int;
  mutable mmio_glitch_left : (string * int) list;
}

let bump t label =
  t.counts <-
    (match List.assoc_opt label t.counts with
    | Some n -> (label, n + 1) :: List.remove_assoc label t.counts
    | None -> (label, 1) :: t.counts)

let install_hooks t =
  Memory.set_write_fault t.mem
    (Some
       (fun ~addr:_ ~value ->
         if t.write_glitch_left > 0 then begin
           t.write_glitch_left <- t.write_glitch_left - 1;
           bump t "write-glitch";
           value lxor (1 lsl t.write_glitch_bit)
         end
         else value));
  Memory.set_mmio_read_fault t.mem
    (Some
       (fun ~device ~addr:_ ->
         match List.assoc_opt device t.mmio_glitch_left with
         | Some n when n > 0 ->
             t.mmio_glitch_left <-
               (device, n - 1) :: List.remove_assoc device t.mmio_glitch_left;
             bump t "mmio-glitch";
             Some (Fault_plan.Prng.word t.rng)
         | _ -> None))

let create platform ~(plan : Fault_plan.t) =
  let t =
    {
      platform;
      kernel = Platform.kernel platform;
      mem = Platform.memory platform;
      engine = Platform.engine platform;
      trace = Platform.trace platform;
      tick_period = (Platform.config platform).Platform.tick_period;
      rng = Fault_plan.Prng.create plan.Fault_plan.seed;
      queue = plan.Fault_plan.events;
      counts = [];
      write_glitch_left = 0;
      write_glitch_bit = 0;
      mmio_glitch_left = [];
    }
  in
  install_hooks t;
  t

let apply t (ev : Fault_plan.event) =
  Trace.emitf t.trace ~source:"inject" "tick %d: %s" ev.at_tick
    (Fault_plan.describe ev.kind);
  match ev.kind with
  | Bit_flip { addr; bit } ->
      (* A single-event upset: flip the bit in place, beneath any
         protection — physics does not consult the EA-MPU. *)
      let v = Memory.read8 t.mem addr in
      Memory.write8 t.mem addr (v lxor (1 lsl (bit land 7)));
      bump t "bit-flip"
  | Write_glitch { count; bit } ->
      t.write_glitch_left <- t.write_glitch_left + count;
      t.write_glitch_bit <- bit land 7
  | Mmio_glitch { device; count } ->
      t.mmio_glitch_left <-
        (match List.assoc_opt device t.mmio_glitch_left with
        | Some n ->
            (device, n + count) :: List.remove_assoc device t.mmio_glitch_left
        | None -> (device, count) :: t.mmio_glitch_left)
  | Irq_storm { irq; count } ->
      for _ = 1 to count do
        Exception_engine.raise_irq t.engine irq;
        bump t "irq-storm"
      done
  | Task_kill { name } -> (
      match Kernel.find_task_by_name t.kernel name with
      | Some tcb ->
          Kernel.kill_task t.kernel tcb;
          bump t "task-kill"
      | None ->
          Trace.emitf t.trace ~source:"inject" "kill target %s absent" name)
  | Task_hang { name } -> (
      match Kernel.find_task_by_name t.kernel name with
      | Some tcb ->
          Kernel.suspend_task t.kernel tcb;
          bump t "task-hang"
      | None ->
          Trace.emitf t.trace ~source:"inject" "hang target %s absent" name)

let apply_due t =
  let tick = Kernel.tick_count t.kernel in
  let rec go () =
    match t.queue with
    | ev :: rest when ev.Fault_plan.at_tick <= tick ->
        t.queue <- rest;
        apply t ev;
        go ()
    | _ -> ()
  in
  go ()

let advance t ~cycles =
  let rec go remaining =
    if remaining > 0 then begin
      apply_due t;
      ignore (Platform.run t.platform ~cycles:(min t.tick_period remaining));
      go (remaining - t.tick_period)
    end
  in
  go cycles;
  apply_due t

let run_ticks t n = advance t ~cycles:(n * t.tick_period)

let injected t =
  List.sort (fun (a, _) (b, _) -> compare a b) t.counts

let pending t = List.length t.queue
