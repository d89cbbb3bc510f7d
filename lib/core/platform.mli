(** The TyTAN platform: the composition root.

    [create ()] builds the whole simulated device — memory, CPU, exception
    engine, tick timer, EA-MPU, kernel and the six trusted components —
    runs secure boot, installs the static protection rules and starts the
    scheduler with the idle task and the loader service task.

    [create ~config:baseline_config ()] instead builds the {e unmodified
    FreeRTOS} device: no EA-MPU, plain kernel vectors and context ops, no
    measurement — the baseline of Tables 2, 3, 4 and 8.

    {2 Memory map}

    {v
      0x0000_0100  IDT (128 B, write-protected after boot)
      0x0000_0200  platform key Kp (20 B, readable only by Remote Attest
                   and Secure Storage)
      0x0000_1000  kernel code (incl. the idle stub), then the trusted
                   component code regions (EA-MPU driver, Int Mux, IPC
                   proxy, RTM, Remote Attest, Secure Storage, ELF loader,
                   incl. the loader service stub), then kernel data
                   (idle + service stacks)
      heap         task allocations, to the end of RAM
      0xF000_0000  MMIO window (tick timer; sensors and consoles attach
                   here)
    v}

    Component region sizes are modelled on the paper's Table 8 totals
    (FreeRTOS 215 617 B; TyTAN + 34 326 B), so the memory-consumption
    experiment reproduces from the map itself. *)

open Tytan_machine
open Tytan_eampu
open Tytan_rtos

exception Boot_failure of string
(** Secure boot found a trusted component whose measurement does not
    match the manufacturer's reference. *)

type config = {
  secure : bool;  (** TyTAN (true) or unmodified FreeRTOS (false) *)
  mem_size : int;
  tick_period : int;  (** cycles between tick IRQs *)
  eampu_slots : int;
  trace_enabled : bool;
  telemetry_enabled : bool;
  (** enable the cycle-accurate telemetry registry; when on, every
      recorded event/span charges the documented [Cost_model] telemetry
      constants (observation is part of the machine) *)
  platform_key : bytes;  (** exactly 20 bytes; the manufacturer-provisioned Kp *)
  tamper_component : string option;
  (** test hook: corrupt this component's code before boot verification *)
  allow_dynamic_loading : bool;
  (** TyTAN's headline flexibility.  With [false] the platform behaves
      like TrustLite: the task set is fixed once {!finish_boot} seals the
      configuration (the related-work comparison mode). *)
  vet_tasks : bool;
  (** Run tycheck static verification over every submitted binary and
      refuse unverifiable ones before measurement (default [false];
      an extension beyond the paper's trusted-tool-chain assumption). *)
  vet_flow : bool;
  (** With [vet_tasks], additionally run the secret-flow and
      IPC-topology checks ([Tycheck.flow_config]): a binary whose
      statically provable behaviour copies attestation-key material
      into an IPC payload, or that messages a peer outside its declared
      manifest, is refused at load (default [false]). *)
  mutable boot_finished : bool;
}

val default_config : config
(** TyTAN at 1.5 kHz tick (32 000 cycles at 48 MHz), 2 MiB RAM,
    32 EA-MPU slots. *)

val baseline_config : config
(** Same platform without any TyTAN extension. *)

val trustlite_config : config
(** Static-configuration mode (all tasks loaded at boot, as TrustLite
    requires); used by the related-work comparison. *)

type t

val create : ?config:config -> unit -> t

(** {2 Accessors} *)

val cpu : t -> Cpu.t
val memory : t -> Memory.t
val engine : t -> Exception_engine.t
val kernel : t -> Kernel.t
val clock : t -> Cycles.t
val trace : t -> Trace.t

val telemetry : t -> Tytan_telemetry.Telemetry.t
(** The platform-wide metrics/span registry, shared by the kernel, the
    trusted components and the network co-simulation.  Costs are wired
    from {!Cost_model.telemetry_event}/{!Cost_model.telemetry_span};
    disabled (and exactly free) unless [config.telemetry_enabled]. *)

val config : t -> config
val loader : t -> Loader.t
val heap : t -> Heap.t

val eampu : t -> Eampu.t option
val mpu_driver : t -> Mpu_driver.t option
val int_mux : t -> Int_mux.t option
val rtm : t -> Rtm.t option
val ipc : t -> Ipc.t option
val attestation : t -> Attestation.t option
val storage : t -> Secure_storage.t option

val storage_service_id : t -> Task_id.t option
(** The IPC identity of the secure-storage service. *)

val attest_service_id : t -> Task_id.t option
(** The IPC identity of the local-attestation service: send
    [[id_lo; id_hi; …]] and receive [[status; id_lo; id_hi; …]] with
    status 0 when a task with that identity is loaded. *)

val kp_addr : t -> Word.t

(** {2 Running} *)

val run : t -> cycles:int -> Cpu.status
(** Advance the machine by (at least) this many cycles, polling the tick
    timer between instructions. *)

val run_ticks : t -> int -> unit
(** Run for a number of tick periods. *)

val poll : t -> unit
(** Poll the tick timer and every attached pollable device (watchdogs). *)

val set_pre_exit_hook : t -> (Tcb.t -> unit) -> unit
(** Install the hook run at the {e start} of task exit, before IPC
    teardown and before the loader reclaims the task's memory — the dead
    task's image is still intact and can be re-measured.  One hook;
    installing replaces the previous one. *)

(** {2 Loading} *)

val load_blocking :
  t ->
  name:string ->
  ?priority:int ->
  ?secure:bool ->
  ?provider:string ->
  Tytan_telf.Telf.t ->
  (Tcb.t, string) result

val submit_load :
  t ->
  name:string ->
  ?priority:int ->
  ?secure:bool ->
  ?provider:string ->
  Tytan_telf.Telf.t ->
  unit
(** Queue an asynchronous load, performed incrementally by the loader
    service task as scheduling allows. *)

val finish_boot : t -> unit
(** Seal the configuration: in static mode, later (un)load attempts are
    rejected (TrustLite semantics).  A no-op when dynamic loading is
    allowed. *)

val unload : t -> Tcb.t -> unit
(** @raise Invalid_argument in sealed static mode. *)

val suspend : t -> Tcb.t -> unit
val resume : t -> Tcb.t -> unit

(** {2 Devices} *)

val attach_sensor :
  t -> name:string -> base:Word.t -> sample:(cycles:int -> Word.t) -> Devices.Sensor.t

val attach_console : t -> base:Word.t -> Devices.Console.t

val attach_watchdog :
  t -> name:string -> base:Word.t -> irq:int -> timeout:int ->
  Devices.Watchdog.t
(** A memory-mapped watchdog timer polled between instructions.  Once
    enabled it raises [irq] (and re-arms) whenever [timeout] cycles pass
    without a kick.  See {!Devices.Watchdog} for the register map. *)

val attach_rx_fifo :
  t -> name:string -> base:Word.t -> irq:int -> capacity:int ->
  Devices.Rx_fifo.t
(** An interrupt-driven receive FIFO (a CAN controller / radio).  Inject
    frames with {!Devices.Rx_fifo.inject}; read from guest code via MMIO,
    or route to a queue with {!route_rx_to_queue}. *)

val route_rx_to_queue : t -> Devices.Rx_fifo.t -> queue_id:int -> int ref
(** Deferred interrupt handling: bind the FIFO's IRQ to a kernel handler
    that drains it into the RT queue, waking blocked receivers.  Returns
    the counter of frames dropped because the queue was full. *)

val restrict_mmio_to_task : t -> Tcb.t -> base:Word.t -> size:int -> (unit, string) result
(** Install an EA-MPU rule granting an MMIO window exclusively to one
    task (plus making it protected from everyone else). *)

val attach_pmu : t -> base:Word.t -> Devices.Pmu.t
(** Map the performance-counter device (cycles, instructions retired,
    context switches) at [base]; reads charge {!Cost_model.pmu_read}.
    Protect the window with {!restrict_mmio_to_task} to give one task
    exclusive access.  See {!Devices.Pmu} for the register map. *)

(** {2 Cycle attribution} *)

val cycle_attribution : t -> (string * int) list
(** Where every cycle went, as [(name, cycles)] rows: each task's
    accumulated run time plus an ["(os)"] row for firmware, trusted
    components and the currently-open slice.  Rows sum exactly to
    [Cycles.now (clock t)]. *)

(** {2 Memory accounting (Table 8)} *)

val memory_map : t -> (string * Region.t) list
val os_memory_bytes : t -> int
(** Static memory of the OS and (in TyTAN mode) trusted components, with
    no task loaded. *)

val component_region : t -> string -> Region.t option
(** Look up a named region, e.g. ["rtm"] or ["kernel-code"]. *)
