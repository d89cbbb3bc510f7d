(* The two device workloads: one simulated TyTAN platform driven tick by
   tick.

   device-idle   three periodic secure counter tasks on a static EA-MPU
                 slot table (the shape of `tytan run`).  The idle task's
                 spin loop retires most instructions, so the
                 interpreter's fetch/decode path, the per-fetch EA-MPU
                 check and the per-instruction poll take most host time.
   device-churn  the paper's Table 1 use case in a loop: t0 (engine
                 control) and t1 (pedal feeder) hold the tick rate over
                 secure IPC while a seeded-size t2 (radar feeder) is
                 submitted to the interruptible loader, relocated,
                 measured and given EA-MPU slots, run for a few ticks,
                 remotely attested, and unloaded — again and again.

   Every layer is observed from outside through public functions.  In
   traced rounds the platform's own hooks are re-installed around
   themselves; untraced rounds drive {!Platform.run_ticks} untouched.
   Both must produce identical simulated results. *)

open Tytan_machine
open Tytan_rtos
open Tytan_core
module Tasks = Tytan_tasks.Task_lib
module Eampu = Tytan_eampu.Eampu

let pedal_addr = 0xF100_0000
let radar_addr = 0xF100_0010
let actuator_addr = 0xF100_0020

(* Slots are created once, so the per-instruction hooks only index an
   array. *)
let s_run = Prof.slot "machine.run"
let s_check = Prof.slot "eampu.check"
let s_poll = Prof.slot "rtos.poll"
let s_save = Prof.slot "rtos.ctx_save"
let s_restore = Prof.slot "rtos.ctx_restore"
let s_ipc = Prof.slot "core.ipc_swi"
let s_load = Prof.slot "core.load_swi"
let s_submit = Prof.slot "core.submit"
let s_attest = Prof.slot "core.attest"
let s_unload = Prof.slot "core.unload"
let s_verify = Prof.slot "crypto.verify"
let s_tick = Prof.slot "bench.tick"
let s_cycle = Prof.slot "bench.churn_cycle"

let rng seed = Random.State.make [| 0x7e7a; seed |]

let platform_key seed =
  Bytes.init 20 (fun i -> Char.chr (((seed * 131) + (i * 71) + 17) land 0xFF))

(* Advance [p] by one tick period, plus the EA-MPU denials seen.
   Traced: Cpu.run is driven with a wrapped poll, and the platform's
   EA-MPU check, context operations and SWI services are each wrapped
   around the very function the platform installed. *)
let attach ~traced p =
  let denials = ref 0 in
  if not traced then ((fun () -> Platform.run_ticks p 1), denials)
  else begin
    let cpu = Platform.cpu p and kernel = Platform.kernel p in
    let mpu = Option.get (Platform.eampu p) in
    let ipc = Option.get (Platform.ipc p) and loader = Platform.loader p in
    Cpu.set_check cpu (fun ~eip ~addr ~size ~kind ->
        let depth = !Prof.sp in
        Prof.push s_check;
        match Eampu.check mpu ~eip ~addr ~size ~kind with
        | () -> Prof.pop_to depth
        | exception e ->
            Prof.pop_to depth;
            incr denials;
            raise e);
    let ops = Kernel.context_ops kernel in
    Kernel.set_context_ops kernel
      {
        Context.save =
          (fun tcb gprs -> Prof.hook s_save (fun () -> ops.save tcb gprs));
        restore = (fun tcb -> Prof.hook s_restore (fun () -> ops.restore tcb));
      };
    Kernel.set_swi_hook kernel (fun ~swi ~gprs ->
        Prof.hook s_ipc (fun () -> Ipc.handle_swi ipc ~swi ~gprs)
        || Prof.hook s_load (fun () -> Loader.handle_swi loader ~swi ~gprs));
    let poll () =
      let depth = !Prof.sp in
      Prof.push s_poll;
      match Platform.poll p with
      | () -> Prof.pop_to depth
      | exception e ->
          Prof.pop_to depth;
          raise e
    in
    let clock = Platform.clock p in
    let period = (Platform.config p).Platform.tick_period in
    let tick () =
      Prof.span s_run (fun () ->
          ignore (Cpu.run cpu ~until_cycles:(Cycles.now clock + period) ~poll))
    in
    (tick, denials)
  end

(* Everything a round body changes, sampled at its start and its end. *)
type marks = {
  instr : int;
  cycles : int;
  ticks : int;
  switches : int;
  faults : int;
  attribution : (string * int) list;
  sha1 : int;
  sha256 : int;
  minor : float;
  polls : int;
  checks : int;
}

(* {!Platform.cycle_attribution} with the running task's open slice moved
   from the "(os)" row to its own, so a difference of two samples charges
   each cycle to whoever used it. *)
let attribution p =
  let rows = Platform.cycle_attribution p in
  match Kernel.current (Platform.kernel p) with
  | Some (tcb : Tcb.t) when tcb.state = Tcb.Running ->
      let open_slice = Cycles.now (Platform.clock p) - tcb.dispatched_at in
      List.map
        (fun (name, c) ->
          if name = "(os)" then (name, c - open_slice)
          else if name = tcb.name then (name, c + open_slice)
          else (name, c))
        rows
  | _ -> rows

let marks p =
  let kernel = Platform.kernel p in
  {
    instr = Cpu.instructions_retired (Platform.cpu p);
    cycles = Cycles.now (Platform.clock p);
    ticks = Kernel.tick_count kernel;
    switches = Kernel.context_switches kernel;
    faults = Kernel.faults kernel;
    attribution = attribution p;
    sha1 = Tytan_crypto.Sha1.total_compressions ();
    sha256 = Tytan_crypto.Sha256.total_compressions ();
    minor = Gc.minor_words ();
    polls = Prof.calls "rtos.poll";
    checks = Prof.calls "eampu.check";
  }

let row attribution name = Option.value ~default:0 (List.assoc_opt name attribution)

(* Sim results and per-layer counts of a round body from its two marks.
   [digest] covers every simulated observable: instructions retired, the
   final clock, the whole cycle attribution and the kernel counters. *)
let summarise ~denials m0 m1 =
  let cycles = m1.cycles - m0.cycles in
  let share name =
    1000.
    *. float_of_int (row m1.attribution name - row m0.attribution name)
    /. float_of_int (max 1 cycles)
  in
  let os = share "(os)" in
  let sim = [ ("instructions", float_of_int (m1.instr - m0.instr)); ("sim_os_permille", os) ] in
  let counts =
    [ ("machine.instructions", float_of_int (m1.instr - m0.instr));
      ("machine.sim_cycles", float_of_int cycles);
      ( "machine.minor_words_per_kcycle",
        (m1.minor -. m0.minor) *. 1000. /. float_of_int (max 1 cycles) );
      ("eampu.checks", float_of_int (m1.checks - m0.checks));
      ("eampu.denials", float_of_int !denials);
      ("rtos.ticks", float_of_int (m1.ticks - m0.ticks));
      ("rtos.context_switches", float_of_int (m1.switches - m0.switches));
      ("rtos.polls", float_of_int (m1.polls - m0.polls));
      ("rtos.idle_permille", share "idle");
      ("crypto.sha1_compressions", float_of_int (m1.sha1 - m0.sha1));
      ("crypto.sha256_compressions", float_of_int (m1.sha256 - m0.sha256)) ]
  in
  let observables =
    [ ("instructions", float_of_int m1.instr); ("cycles", float_of_int m1.cycles);
      ("ticks", float_of_int m1.ticks); ("switches", float_of_int m1.switches);
      ("faults", float_of_int m1.faults) ]
    @ List.map (fun (n, c) -> ("attr:" ^ n, float_of_int c)) m1.attribution
  in
  (sim, counts, observables)

(* Read a task's data word straight from simulated RAM: an outside
   observer, with no protection check and no cycle charge. *)
let data_word p (tcb : Tcb.t) telf i =
  Memory.read32 (Platform.memory p)
    (tcb.region_base + Tasks.data_cell_offset telf + (4 * i))

(* A task that should run once per tick.  At a sampling point its count
   may trail the tick counter by one (it has not run yet this tick); a lag
   beyond that, once reached, is a missed activation. *)
type periodic = {
  read : unit -> int;
  tick0 : int;
  count0 : int;
  mutable missed : int;
}

let periodic p read =
  { read; tick0 = Kernel.tick_count (Platform.kernel p); count0 = read (); missed = 0 }

(* Activations missed since the last call. *)
let new_misses p t =
  let lag =
    Kernel.tick_count (Platform.kernel p) - t.tick0 - (t.read () - t.count0) - 1
  in
  if lag > t.missed then begin
    let n = lag - t.missed in
    t.missed <- lag;
    n
  end
  else 0

(* --- device-idle ------------------------------------------------------------ *)

let idle_ticks = 60

let idle_round ~seed ~traced =
  let t_start = Prof.now_ns () in
  let g = rng seed in
  let config = { Platform.default_config with platform_key = platform_key seed } in
  let p = Platform.create ~config () in
  let c = Round.new_checks () in
  let counters =
    List.filter_map
      (fun i ->
        let stack_size = if Random.State.bool g then 512 else 768 in
        let priority = 2 + Random.State.int g 3 in
        let telf = Tasks.counter ~stack_size () in
        match
          Platform.load_blocking p ~name:(Printf.sprintf "counter-%d" i) ~priority telf
        with
        | Ok tcb -> Some (tcb, telf)
        | Error e ->
            ignore (Round.check c ~op:0 false ("counter load refused: " ^ e));
            None)
      [ 0; 1; 2 ]
  in
  let tick, denials = attach ~traced p in
  let tracked =
    List.map (fun (t, telf) -> periodic p (fun () -> data_word p t telf 0)) counters
  in
  let steps = ref [] and failed = ref 0 and missed = ref 0 in
  let m0 = marks p in
  let snap = Prof.snapshot () in
  let t_body = Prof.now_ns () in
  for op = 1 to idle_ticks do
    Round.timed steps (fun () -> if traced then Prof.operation s_tick op tick else tick ());
    let misses = List.fold_left (fun n t -> n + new_misses p t) 0 tracked in
    missed := !missed + misses;
    let ok =
      List.for_all
        (fun ((t : Tcb.t), telf) ->
          Round.check c ~op
            (data_word p t telf 0 = t.activations)
            (t.name ^ " counter differs from its activations"))
        counters
      && Round.check c ~op (Kernel.faults (Platform.kernel p) = m0.faults) "kernel fault"
    in
    if misses > 0 || not ok then incr failed
  done;
  let t_end = Prof.now_ns () in
  let sim, counts, observables = summarise ~denials m0 (marks p) in
  let refused = 3 - List.length counters in
  {
    Round.setup = t_body - t_start;
    body = t_end - t_body;
    steps = Array.of_list (List.rev !steps);
    ops = idle_ticks;
    attempted = idle_ticks;
    failed = !failed + refused;
    violations = c.log;
    sim;
    counts = counts @ [ ("rtos.missed_activations", float_of_int !missed) ];
    digest = Round.digest_of observables;
    slot_ns = Prof.since snap;
  }

(* --- device-churn ----------------------------------------------------------- *)

let churn_cycles = 40

(* How many ticks one load may take before it counts as lost. *)
let load_guard = 400

(* A seeded Fisher-Yates shuffle of [a], in place; returns [a]. *)
let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let churn_round ~seed ~traced =
  let t_start = Prof.now_ns () in
  let g = rng seed in
  let config = { Platform.default_config with platform_key = platform_key seed } in
  let p = Platform.create ~config () in
  let c = Round.new_checks () in
  ignore
    (Platform.attach_sensor p ~name:"pedal" ~base:pedal_addr
       ~sample:(fun ~cycles -> 40 + (cycles / 1_000_000 mod 20)));
  ignore
    (Platform.attach_sensor p ~name:"radar" ~base:radar_addr
       ~sample:(fun ~cycles -> 10 + (cycles / 2_000_000 mod 10)));
  ignore (Platform.attach_console p ~base:actuator_addr);
  let rtm = Option.get (Platform.rtm p) in
  let att = Option.get (Platform.attestation p) in
  let ipc = Option.get (Platform.ipc p) and loader = Platform.loader p in
  let mpu = Option.get (Platform.eampu p) in
  let kernel = Platform.kernel p and clock = Platform.clock p in
  let t0_telf = Tasks.cruise_controller ~actuator_addr in
  let t0 = Result.get_ok (Platform.load_blocking p ~name:"t0" ~priority:5 t0_telf) in
  let t0_id = (Option.get (Rtm.find_by_tcb rtm t0)).Rtm.id in
  let t1_telf = Tasks.sensor_feeder ~sensor_addr:pedal_addr ~controller:t0_id ~tag:1 () in
  let t1 = Result.get_ok (Platform.load_blocking p ~name:"t1" ~priority:4 t1_telf) in
  (* The seeded schedule: each cycle's t2 size (NOP padding around the
     paper's 1385), run length and attestation nonce.  Sizes are drawn
     one per stratum of 1100..1400 and run lengths from a fixed mix of
     2, 3 and 4 ticks, both in seeded order, so every seed's round does
     about the same amount of work.  The verifier's reference identity
     of every image is computed here, from the distributed binary. *)
  let stratum = 300 / churn_cycles in
  let sizes =
    shuffle g
      (Array.init churn_cycles (fun k -> 1100 + (k * stratum) + Random.State.int g stratum))
  in
  let lengths = shuffle g (Array.init churn_cycles (fun k -> 2 + (k mod 3))) in
  let images = Hashtbl.create churn_cycles in
  let schedule =
    Array.init churn_cycles (fun i ->
        let pad = sizes.(i) in
        let telf, identity =
          match Hashtbl.find_opt images pad with
          | Some v -> v
          | None ->
              let telf =
                Tasks.sensor_feeder ~sensor_addr:radar_addr ~controller:t0_id ~tag:2
                  ~pad_instructions:pad ()
              in
              let v = (telf, Rtm.identity_of_telf telf) in
              Hashtbl.replace images pad v;
              v
        in
        let run_ticks = lengths.(i) in
        let nonce = Bytes.of_string (Printf.sprintf "churn-%d-%d-%d" seed i pad) in
        (telf, identity, run_ticks, nonce))
  in
  let ka = Attestation.derive_ka ~platform_key:config.platform_key in
  (* The loader reports each completed load with its TCB: a name lookup
     could find an earlier, already unloaded t2. *)
  let loaded = ref None in
  Loader.on_loaded loader (fun tcb -> loaded := Some (tcb, Cycles.now clock));
  let tick, denials = attach ~traced p in
  let baseline_slots = Eampu.used_slots mpu in
  let slot_table () = Array.init (Eampu.slot_count mpu) (Eampu.slot mpu) in
  let slot_writes = ref 0 in
  let diff_slots before =
    Array.iteri (fun i r -> if r <> before.(i) then incr slot_writes) (slot_table ())
  in
  let tracked =
    [ periodic p (fun () -> data_word p t0 t0_telf 0);
      periodic p (fun () -> data_word p t1 t1_telf 0) ]
  in
  let steps = ref [] and failed = ref 0 and missed = ref 0 and load_cycles = ref [] in
  let loads0 = Loader.loads_completed loader and rtm0 = Rtm.measurements rtm in
  let attests0 = Attestation.reports_issued att and ipc0 = Ipc.deliveries ipc in
  let m0 = marks p in
  let snap = Prof.snapshot () in
  let t_body = Prof.now_ns () in
  let span s f = if traced then Prof.span s f else f () in
  Array.iteri
    (fun i (telf, identity, run_ticks, nonce) ->
      let op = i + 1 in
      let cycle () =
        let slots_before = slot_table () in
        loaded := None;
        let submitted = Cycles.now clock in
        span s_submit (fun () -> Platform.submit_load p ~name:"t2" ~priority:4 telf);
        let rec wait n =
          if !loaded = None && Loader.pending loader > 0 && n < load_guard then begin
            tick ();
            wait (n + 1)
          end
        in
        wait 0;
        match !loaded with
        | None -> Round.check c ~op false "t2 load refused or never completed"
        | Some (t2, at) ->
            load_cycles := float_of_int (at - submitted) :: !load_cycles;
            diff_slots slots_before;
            for _ = 1 to run_ticks do
              tick ()
            done;
            let verified =
              match span s_attest (fun () -> Attestation.remote_attest att ~id:identity ~nonce) with
              | Some r ->
                  span s_verify (fun () -> Attestation.verify ~ka r ~expected:identity ~nonce)
              | None -> false
            in
            let slots_loaded = slot_table () in
            span s_unload (fun () -> Platform.unload p t2);
            diff_slots slots_loaded;
            Round.check c ~op verified "t2 attestation did not verify against its identity"
            && Round.check c ~op
                 (Eampu.used_slots mpu = baseline_slots)
                 "EA-MPU slot count did not return to baseline after unload"
      in
      let ok =
        Round.timed steps (fun () ->
            if traced then Prof.operation s_cycle op cycle else cycle ())
      in
      let ok = Round.check c ~op (Kernel.faults kernel = m0.faults) "kernel fault" && ok in
      let misses = List.fold_left (fun n t -> n + new_misses p t) 0 tracked in
      missed := !missed + misses;
      if misses > 0 || not ok then incr failed)
    schedule;
  let t_end = Prof.now_ns () in
  let sim, counts, observables = summarise ~denials m0 (marks p) in
  let loads = Round.sorted_floats !load_cycles in
  let rung = Round.tail_rung (Array.length loads) in
  {
    Round.setup = t_body - t_start;
    body = t_end - t_body;
    steps = Array.of_list (List.rev !steps);
    ops = churn_cycles;
    attempted = churn_cycles;
    failed = !failed;
    violations = c.log;
    sim =
      sim
      @ [ ("sim_load_cycles_p50", Round.percentile loads 50.);
          ("sim_load_cycles_tail", Round.percentile loads rung);
          ("sim_load_cycles_tail.pct", rung);
          ("sim_load_cycles.n", float_of_int (Array.length loads)) ];
    counts =
      counts
      @ [ ("rtos.missed_activations", float_of_int !missed);
          ("eampu.slot_writes", float_of_int !slot_writes);
          ("core.loads", float_of_int (Loader.loads_completed loader - loads0));
          ("core.rtm_measurements", float_of_int (Rtm.measurements rtm - rtm0));
          ("core.attests", float_of_int (Attestation.reports_issued att - attests0));
          ( "crypto.key_derivations",
            float_of_int (Attestation.reports_issued att - attests0) );
          ("core.ipc_deliveries", float_of_int (Ipc.deliveries ipc - ipc0)) ];
    digest =
      Round.digest_of
        (observables
        @ List.mapi (fun i l -> (Printf.sprintf "load%d" i, l)) (List.rev !load_cycles)
        @ [ ("slot_writes", float_of_int !slot_writes);
            ("missed", float_of_int !missed) ]);
    slot_ns = Prof.since snap;
  }
