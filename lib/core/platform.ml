open Tytan_machine
open Tytan_eampu
open Tytan_rtos
open Tytan_telemetry
module Crypto = Tytan_crypto

exception Boot_failure of string

type config = {
  secure : bool;
  mem_size : int;
  tick_period : int;
  eampu_slots : int;
  trace_enabled : bool;
  telemetry_enabled : bool;
  platform_key : bytes;
  tamper_component : string option;
  allow_dynamic_loading : bool;
  vet_tasks : bool;
  vet_flow : bool;
  mutable boot_finished : bool;
}

let default_config =
  {
    secure = true;
    mem_size = 2 * 1024 * 1024;
    tick_period = 32_000 (* 1.5 kHz at 48 MHz *);
    eampu_slots = 32;
    trace_enabled = false;
    telemetry_enabled = false;
    platform_key = Bytes.of_string "tytan-platform-key--";
    tamper_component = None;
    allow_dynamic_loading = true;
    vet_tasks = false;
    vet_flow = false;
    boot_finished = false;
  }

let baseline_config = { default_config with secure = false }

(* TrustLite's deployment model: every task and its isolation rules are
   fixed at boot; nothing can be (un)loaded afterwards.  The comparison
   benchmark uses this mode to demonstrate the flexibility gap TyTAN
   closes. *)
let trustlite_config = { default_config with allow_dynamic_loading = false }

(* Component sizes modelled on Table 8: the kernel alone totals 215 617 B
   (FreeRTOS); the TyTAN components add 34 326 B (249 943 B total). *)
let kernel_code_size = 181_000
let kernel_data_size = 34_617

let component_sizes =
  [
    ("eampu-driver", 4_210);
    ("int-mux", 2_134);
    ("ipc-proxy", 3_356);
    ("rtm", 9_862);
    ("remote-attest", 6_370);
    ("secure-storage", 5_130);
    ("elf-loader", 3_264);
  ]

let idt_base = 0x100
let kp_base = 0x200
let first_region_base = 0x1000
let idle_stub_offset = 512 (* inside kernel code *)
let svc_stub_offset = 512 (* inside the elf-loader region *)
let idle_stack_size = 256
let svc_stack_size = 1024

type t = {
  cpu : Cpu.t;
  mem : Memory.t;
  clock : Cycles.t;
  engine : Exception_engine.t;
  trace : Trace.t;
  telemetry : Telemetry.t;
  kernel : Kernel.t;
  heap : Heap.t;
  loader : Loader.t;
  timer : Devices.Timer.t;
  pre_exit : (Tcb.t -> unit) ref;
  mutable pollables : (unit -> unit) list;
  config : config;
  map : (string * Region.t) list;
  eampu : Eampu.t option;
  mpu_driver : Mpu_driver.t option;
  int_mux : Int_mux.t option;
  rtm : Rtm.t option;
  ipc : Ipc.t option;
  attestation : Attestation.t option;
  storage : Secure_storage.t option;
  storage_service_id : Task_id.t option;
  attest_service_id : Task_id.t option;
}

(* --- Memory map --------------------------------------------------------- *)

let align16 n = (n + 15) land lnot 15

let build_map () =
  let map = ref [] in
  let cursor = ref first_region_base in
  let place name size =
    let region = Region.make ~base:!cursor ~size in
    map := (name, region) :: !map;
    cursor := align16 (!cursor + size);
    region
  in
  let idt = Region.make ~base:idt_base ~size:Exception_engine.idt_size in
  let kp = Region.make ~base:kp_base ~size:Crypto.Sha1.digest_size in
  map := [ ("kp", kp); ("idt", idt) ];
  let kernel_code = place "kernel-code" kernel_code_size in
  List.iter (fun (name, size) -> ignore (place name size)) component_sizes;
  let trusted_code_end = !cursor in
  let kernel_data = place "kernel-data" kernel_data_size in
  let heap_base = (!cursor + 0xFFF) land lnot 0xFFF in
  ignore kernel_code;
  ignore kernel_data;
  (List.rev !map, trusted_code_end, heap_base)

let region map name = List.assoc name map

(* Deterministic pseudo-content for a trusted component's code region, so
   secure boot has real bytes to measure. *)
let fill_region mem name (r : Region.t) =
  let seed = Hashtbl.hash name in
  Memory.init_range mem (Region.base r) (Region.size r) (fun i ->
      Char.chr ((seed + (i * 131)) land 0xFF))

let write_program mem addr instrs =
  List.iteri
    (fun i instr ->
      Memory.blit_bytes mem (addr + (i * Isa.width)) (Isa.encode instr))
    instrs

(* The idle task: spin in place. *)
let idle_program = [ Isa.Jmp (Word.of_signed (-Isa.width)) ]

(* The loader service task: step the loader; sleep a tick when idle.
     loop: swi STEP          ; r0 := 0 idle / 1 working / 2 loaded / 3 failed
           cmpi r0, 0
           jnz loop          ; work remains (or just finished): step again
           movi r0, 1
           swi DELAY
           jmp loop *)
let svc_program =
  [
    Isa.Swi Loader.swi_step;
    Isa.Cmpi (0, 0);
    Isa.Jnz (Word.of_signed (-3 * Isa.width));
    Isa.Movi (0, 1);
    Isa.Swi 2;
    Isa.Jmp (Word.of_signed (-6 * Isa.width));
  ]

(* SHA-1 of a region, hashed in place from RAM. *)
let hash_region mem (r : Region.t) =
  let ctx = Crypto.Sha1.init () in
  Memory.iter_range mem (Region.base r) (Region.size r) (Crypto.Sha1.feed_sub ctx);
  Crypto.Sha1.finalize ctx

let region_id mem r = Task_id.of_digest (hash_region mem r)

(* --- Secure boot --------------------------------------------------------- *)

let verify_components clock mem map ~references =
  List.iter
    (fun (name, reference) ->
      let r = region map name in
      let blocks =
        (Region.size r + Crypto.Sha1.block_size - 1) / Crypto.Sha1.block_size
      in
      Cycles.charge clock (blocks * Cost_model.boot_verify_per_block);
      let digest = hash_region mem r in
      if not (Crypto.Constant_time.equal digest reference) then
        raise
          (Boot_failure
             (Printf.sprintf "component %s failed boot-time verification" name)))
    references

(* --- Creation ------------------------------------------------------------ *)

let create ?(config = default_config) () =
  if Bytes.length config.platform_key <> Crypto.Sha1.digest_size then
    invalid_arg "Platform.create: platform_key must be exactly 20 bytes";
  let mem = Memory.create ~size:config.mem_size in
  let clock = Cycles.create () in
  let engine = Exception_engine.create mem ~idt_base in
  let cpu = Cpu.create mem clock engine in
  let trace = Trace.create clock in
  if config.trace_enabled then Trace.enable trace;
  let telemetry =
    Telemetry.create ~per_event_cost:Cost_model.telemetry_event
      ~per_span_cost:Cost_model.telemetry_span clock
  in
  if config.telemetry_enabled then Telemetry.enable telemetry;
  let map, trusted_code_end, heap_base = build_map () in
  if heap_base >= config.mem_size then
    invalid_arg "Platform.create: memory too small for the OS image";
  (* Provision content: pseudo-code for trusted regions, the two guest
     stubs, the platform key. *)
  List.iter
    (fun (name, r) ->
      if name <> "idt" && name <> "kp" then fill_region mem name r)
    map;
  let kernel_code = region map "kernel-code" in
  let kernel_data = region map "kernel-data" in
  let elf_loader = region map "elf-loader" in
  let idle_stub = Region.base kernel_code + idle_stub_offset in
  let svc_stub = Region.base elf_loader + svc_stub_offset in
  write_program mem idle_stub idle_program;
  write_program mem svc_stub svc_program;
  Memory.blit_bytes mem kp_base config.platform_key;
  (* Manufacturer reference measurements, taken before any tampering. *)
  let references =
    List.filter_map
      (fun (name, r) ->
        if name = "idt" || name = "kp" || name = "kernel-data" then None
        else
          Some (name, hash_region mem r))
      map
  in
  (* Test hook: a corrupted component must make secure boot fail. *)
  (match config.tamper_component with
  | Some name ->
      let r = region map name in
      Memory.write8 mem (Region.base r + 7) 0xAA
  | None -> ());
  let kernel =
    Kernel.create ~telemetry cpu ~code_eip:(Region.base kernel_code)
      ~tick_irq:0 ~trace
  in
  let heap =
    Heap.create ~base:heap_base ~size:(config.mem_size - heap_base)
  in
  let svc_stack_base = Region.base kernel_data + idle_stack_size in
  (* Runs before IPC teardown and memory reclamation on every task exit,
     while the dead task's image is still intact — the supervisor's
     post-mortem re-measurement hook. *)
  let pre_exit = ref (fun (_ : Tcb.t) -> ()) in
  let trusted_regions =
    {
      Loader.kernel_code;
      int_mux = region map "int-mux";
      ipc_proxy = region map "ipc-proxy";
      rtm = region map "rtm";
    }
  in
  let platform =
    if config.secure then begin
      verify_components clock mem map ~references;
      let eampu = Eampu.create ~slots:config.eampu_slots () in
      let mpu =
        Mpu_driver.create eampu clock
          ~code_eip:(Region.base (region map "eampu-driver"))
      in
      let rtm =
        Rtm.create ~telemetry cpu ~code_eip:(Region.base (region map "rtm"))
      in
      let int_mux =
        Int_mux.create kernel ~code_eip:(Region.base (region map "int-mux"))
      in
      let storage =
        Secure_storage.create cpu
          ~code_eip:(Region.base (region map "secure-storage"))
          ~kp_addr:kp_base
      in
      let attestation =
        Attestation.create cpu
          ~code_eip:(Region.base (region map "remote-attest"))
          ~kp_addr:kp_base ~rtm
      in
      let shm_alloc ~size = Heap.alloc heap ~size in
      let shm_grant ~(a : Tcb.t) ~(b : Tcb.t) ~base ~size =
        let window = Region.make ~base ~size in
        let grant (tcb : Tcb.t) =
          let code =
            Region.make ~base:tcb.code_base ~size:(max 1 tcb.code_size)
          in
          Mpu_driver.install_rule mpu
            (Eampu.Grant { code; data = window; perm = Perm.rw })
        in
        match grant a with
        | Error e -> Error e
        | Ok _ -> ( match grant b with Error e -> Error e | Ok _ -> Ok ())
      in
      let ipc =
        Ipc.create kernel rtm
          ~code_eip:(Region.base (region map "ipc-proxy"))
          ~proxy_id:(region_id mem (region map "ipc-proxy"))
          ~shm_alloc ~shm_grant
      in
      let storage_id = region_id mem (region map "secure-storage") in
      let storage_handler = Secure_storage.ipc_handler storage in
      Ipc.register_service ipc ~name:"secure-storage" ~id:storage_id
        ~handler:(fun ~sender ~message ->
          Telemetry.with_span telemetry ~component:"storage" "op" (fun () ->
              storage_handler ~sender ~message));
      (* Local attestation as an IPC endpoint: a task sends an identity
         (two words) and learns whether a task with that identity is
         currently loaded — id_t doubles as the local attestation report
         (paper section 3). *)
      let attest_id = region_id mem (region map "remote-attest") in
      Ipc.register_service ipc ~name:"local-attest" ~id:attest_id
        ~handler:(fun ~sender:_ ~message ->
          Telemetry.with_span telemetry ~component:"attest" "local" (fun () ->
              let queried = Task_id.of_words ~lo:message.(0) ~hi:message.(1) in
              let loaded = Attestation.local_attest attestation queried in
              Some
                [|
                  (if loaded then 0 else 1); message.(0); message.(1); 0; 0; 0;
                  0; 0;
                |]));
      let loader =
        Loader.create
          ?vet:
            (if config.vet_tasks then
               Some
                 (if config.vet_flow then Tytan_analysis.Tycheck.flow_config
                  else Tytan_analysis.Tycheck.default_config)
             else None)
          ~kernel ~rtm ~mpu:(Some mpu) ~heap
          ~code_eip:(Region.base elf_loader) ~regions:trusted_regions ()
      in
      (* Static protection rules. *)
      let static_rules =
        [
          Eampu.Exec
            {
              region =
                Region.make ~base:(Region.base kernel_code)
                  ~size:(trusted_code_end - Region.base kernel_code);
              entry = None;
            };
          Eampu.Grant
            { code = kernel_code; data = kernel_data; perm = Perm.rw };
          Eampu.Grant
            { code = kernel_code; data = region map "idt"; perm = Perm.r };
          Eampu.Grant
            {
              code = region map "remote-attest";
              data = region map "kp";
              perm = Perm.r;
            };
          Eampu.Grant
            {
              code = region map "secure-storage";
              data = region map "kp";
              perm = Perm.r;
            };
          Eampu.Grant
            {
              code = elf_loader;
              data = Region.make ~base:svc_stack_base ~size:svc_stack_size;
              perm = Perm.rw;
            };
        ]
      in
      List.iter
        (fun rule ->
          match Mpu_driver.install_static mpu rule with
          | Ok _ -> ()
          | Error e -> raise (Boot_failure ("static rule rejected: " ^ e)))
        static_rules;
      (* Route every vector through the Int Mux and install the
         secure-aware context ops before enabling enforcement. *)
      Int_mux.install_vectors int_mux;
      Kernel.set_context_ops kernel (Int_mux.context_ops int_mux);
      Kernel.set_swi_hook kernel (fun ~swi ~gprs ->
          Ipc.handle_swi ipc ~swi ~gprs || Loader.handle_swi loader ~swi ~gprs);
      Kernel.set_on_exit kernel (fun tcb ->
          !pre_exit tcb;
          Ipc.on_task_exit ipc tcb;
          Loader.reclaim loader tcb);
      Eampu.enable eampu;
      Cpu.set_check cpu (fun ~eip ~addr ~size ~kind ->
          Eampu.check eampu ~eip ~addr ~size ~kind);
      {
        cpu;
        mem;
        clock;
        engine;
        trace;
        telemetry;
        kernel;
        heap;
        loader;
        timer = Devices.Timer.create engine clock ~irq:0 ~period:config.tick_period;
        pre_exit;
        pollables = [];
        config;
        map;
        eampu = Some eampu;
        mpu_driver = Some mpu;
        int_mux = Some int_mux;
        rtm = Some rtm;
        ipc = Some ipc;
        attestation = Some attestation;
        storage = Some storage;
        storage_service_id = Some storage_id;
        attest_service_id = Some attest_id;
      }
    end
    else begin
      (* Unmodified-FreeRTOS baseline: an RTM instance exists only as the
         loader's (uncharged) identity directory for IPC-free loads. *)
      let rtm =
        Rtm.create ~telemetry cpu ~code_eip:(Region.base (region map "rtm"))
      in
      let loader =
        Loader.create
          ?vet:
            (if config.vet_tasks then
               Some
                 (if config.vet_flow then Tytan_analysis.Tycheck.flow_config
                  else Tytan_analysis.Tycheck.default_config)
             else None)
          ~kernel ~rtm ~mpu:None ~heap
          ~code_eip:(Region.base elf_loader) ~regions:trusted_regions ()
      in
      Kernel.install_vectors kernel;
      Kernel.set_swi_hook kernel (fun ~swi ~gprs ->
          Loader.handle_swi loader ~swi ~gprs);
      Kernel.set_on_exit kernel (fun tcb ->
          !pre_exit tcb;
          Loader.reclaim loader tcb);
      {
        cpu;
        mem;
        clock;
        engine;
        trace;
        telemetry;
        kernel;
        heap;
        loader;
        timer = Devices.Timer.create engine clock ~irq:0 ~period:config.tick_period;
        pre_exit;
        pollables = [];
        config;
        map;
        eampu = None;
        mpu_driver = None;
        int_mux = None;
        rtm = None;
        ipc = None;
        attestation = None;
        storage = None;
        storage_service_id = None;
        attest_service_id = None;
      }
    end
  in
  (* Idle task and loader service task, then start scheduling. *)
  Kernel.init_idle kernel ~code_base:idle_stub
    ~stack_base:(Region.base kernel_data) ~stack_size:idle_stack_size;
  let _svc =
    Kernel.create_task kernel ~name:"svc-loader" ~priority:1 ~secure:false
      ~region_base:svc_stack_base ~region_size:svc_stack_size
      ~code_base:svc_stub
      ~code_size:(List.length svc_program * Isa.width)
      ~entry:svc_stub ~stack_base:svc_stack_base ~stack_size:svc_stack_size
      ~inbox_base:0 ()
  in
  Kernel.start kernel;
  platform

(* --- Accessors ----------------------------------------------------------- *)

let cpu t = t.cpu
let memory t = t.mem
let engine t = t.engine
let kernel t = t.kernel
let clock t = t.clock
let trace t = t.trace
let telemetry t = t.telemetry
let config t = t.config
let loader t = t.loader
let heap t = t.heap
let eampu t = t.eampu
let mpu_driver t = t.mpu_driver
let int_mux t = t.int_mux
let rtm t = t.rtm
let ipc t = t.ipc
let attestation t = t.attestation
let storage t = t.storage
let storage_service_id t = t.storage_service_id
let attest_service_id t = t.attest_service_id
let kp_addr _ = kp_base

(* --- Running ------------------------------------------------------------- *)

let poll t =
  Devices.Timer.poll t.timer;
  List.iter (fun f -> f ()) t.pollables

let add_pollable t f = t.pollables <- t.pollables @ [ f ]
let set_pre_exit_hook t f = t.pre_exit := f

let run t ~cycles =
  Cpu.run t.cpu
    ~until_cycles:(Cycles.now t.clock + cycles)
    ~poll:(fun () -> poll t)

let run_ticks t n = ignore (run t ~cycles:(n * t.config.tick_period))

(* --- Loading ------------------------------------------------------------- *)

let request ~name ?(priority = 2) ?(secure = true) ?(provider = "default")
    telf =
  { Loader.telf; name; priority; secure; provider }

let loading_allowed t =
  t.config.allow_dynamic_loading || not t.config.boot_finished

let finish_boot t = t.config.boot_finished <- true

let load_blocking t ~name ?priority ?secure ?provider telf =
  if loading_allowed t then
    Loader.load_blocking t.loader (request ~name ?priority ?secure ?provider telf)
  else Error "static configuration: tasks can only be loaded at boot"

let submit_load t ~name ?priority ?secure ?provider telf =
  if loading_allowed t then
    Loader.submit t.loader (request ~name ?priority ?secure ?provider telf)
  else
    Trace.emitf t.trace ~source:"loader"
      "rejected %s: static configuration is sealed" name

let unload t tcb =
  if loading_allowed t then Loader.unload t.loader tcb
  else invalid_arg "Platform.unload: static configuration is sealed"
let suspend t tcb = Kernel.suspend_task t.kernel tcb
let resume t tcb = Kernel.resume_task t.kernel tcb

(* --- Devices ------------------------------------------------------------- *)

let attach_sensor t ~name ~base ~sample =
  let sensor = Devices.Sensor.create ~name ~base ~clock:t.clock ~sample in
  Memory.map_device t.mem (Devices.Sensor.device sensor);
  sensor

let attach_rx_fifo t ~name ~base ~irq ~capacity =
  let fifo =
    Devices.Rx_fifo.create t.engine ~name ~base ~irq ~capacity
  in
  Memory.map_device t.mem (Devices.Rx_fifo.device fifo);
  fifo

(* Deferred interrupt handling: the IRQ handler drains the FIFO into an
   RT queue, waking any blocked receiver.  Frames that do not fit are
   dropped and counted. *)
let route_rx_to_queue t fifo ~queue_id =
  let dropped = ref 0 in
  Kernel.set_irq_handler t.kernel ~irq:(Devices.Rx_fifo.irq fifo) (fun () ->
      let device = Devices.Rx_fifo.device fifo in
      while Devices.Rx_fifo.pending fifo > 0 do
        let frame = device.Memory.read32 ~offset:4 in
        if not (Kernel.queue_post t.kernel ~queue_id ~value:frame) then
          incr dropped
      done);
  dropped

let attach_watchdog t ~name ~base ~irq ~timeout =
  let wd = Devices.Watchdog.create t.engine t.clock ~name ~base ~irq ~timeout in
  Memory.map_device t.mem (Devices.Watchdog.device wd);
  add_pollable t (fun () -> Devices.Watchdog.poll wd);
  wd

let attach_pmu t ~base =
  let pmu =
    Devices.Pmu.create t.clock ~name:"pmu" ~base
      ~read_cost:Cost_model.pmu_read
      ~instructions:(fun () -> Cpu.instructions_retired t.cpu)
      ~context_switches:(fun () -> Kernel.context_switches t.kernel)
  in
  Memory.map_device t.mem (Devices.Pmu.device pmu);
  pmu

let attach_console t ~base =
  let console = Devices.Console.create ~base in
  Memory.map_device t.mem (Devices.Console.device console);
  console

let restrict_mmio_to_task t (tcb : Tcb.t) ~base ~size =
  match t.mpu_driver with
  | None -> Error "no EA-MPU on this platform"
  | Some mpu -> (
      let code = Region.make ~base:tcb.code_base ~size:(max 1 tcb.code_size) in
      let window = Region.make ~base ~size in
      match
        Mpu_driver.install_rule mpu
          (Eampu.Grant { code; data = window; perm = Perm.rw })
      with
      | Ok _ -> Ok ()
      | Error e -> Error e)

(* --- Cycle attribution ---------------------------------------------------- *)

(* Where every cycle went: each task's accumulated run time, with the
   remainder — firmware services, trusted components, interrupt plumbing
   and the currently-running task's open slice — in the "(os)" bucket.
   The rows sum to [Cycles.now] by construction. *)
let cycle_attribution t =
  let total = Cycles.now t.clock in
  let tasks =
    List.map
      (fun (tcb : Tcb.t) -> (tcb.name, tcb.cycles_used))
      (Kernel.all_tasks t.kernel)
  in
  let used = List.fold_left (fun n (_, c) -> n + c) 0 tasks in
  tasks @ [ ("(os)", total - used) ]

(* --- Memory accounting (Table 8) ----------------------------------------- *)

let memory_map t = t.map

let os_memory_bytes t =
  let base = kernel_code_size + kernel_data_size in
  if t.config.secure then
    base + List.fold_left (fun n (_, size) -> n + size) 0 component_sizes
  else base

let component_region t name =
  List.assoc_opt name t.map
