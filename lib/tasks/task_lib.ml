open Tytan_machine
open Tytan_telf
open Tytan_core

let data_cell_offset (telf : Telf.t) = telf.text_size

let build ~secure ?manifest ?(stack_size = 512) ?on_message main =
  let program =
    if secure then Toolchain.secure_program ~main ?on_message ()
    else Toolchain.normal_program ~main
  in
  Builder.of_program ?manifest ~stack_size program

(* Hand-written senders declare their one receiver, the same way the
   Tasklang compiler would have. *)
let peer_manifest id =
  let lo, hi = Task_id.to_words id in
  Manifest.make ~peers:[ (lo, hi) ] ()

(* Common idiom: load the address of a data label, bump the word there. *)
let increment_cell p ~addr_reg ~scratch label =
  Assembler.movi_label p ~rd:addr_reg label;
  Assembler.instr p (Isa.Ldw (scratch, addr_reg, 0));
  Assembler.instr p (Isa.Addi (scratch, scratch, 1));
  Assembler.instr p (Isa.Stw (addr_reg, 0, scratch))

let delay_one_tick p =
  Assembler.instr p (Isa.Movi (0, 1));
  Assembler.instr p (Isa.Swi 2)

(* Park for good: sleep 100 ticks at a time. *)
let rest p =
  Assembler.label p "rest";
  Assembler.instr p (Isa.Movi (0, 100));
  Assembler.instr p (Isa.Swi 2);
  Assembler.jmp_label p "rest"

(* Open the data section with one zero-initialised word per name. *)
let zero_cells p names =
  Assembler.begin_data p;
  List.iter
    (fun name ->
      Assembler.label p name;
      Assembler.word p 0)
    names

(* Send the message in r0..r7 to [receiver] in IPC [mode]. *)
let send p ~receiver ~mode =
  let lo, hi = Task_id.to_words receiver in
  Assembler.instr p (Isa.Movi (8, lo));
  Assembler.instr p (Isa.Movi (9, hi));
  Assembler.instr p (Isa.Movi (10, mode));
  Assembler.instr p (Isa.Swi Ipc.swi_send)

let counter ?(secure = true) ?(stack_size = 512) () =
  build ~secure ~stack_size (fun p ->
      Assembler.label p "main";
      Assembler.label p "loop";
      increment_cell p ~addr_reg:4 ~scratch:5 "counter";
      delay_one_tick p;
      Assembler.jmp_label p "loop";
      zero_cells p [ "counter" ])

let sensor_poller ?(secure = true) ~sensor_addr ?(period_ticks = 1) () =
  build ~secure (fun p ->
      Assembler.label p "main";
      Assembler.label p "loop";
      Assembler.instr p (Isa.Movi (6, sensor_addr));
      Assembler.instr p (Isa.Ldw (7, 6, 0));
      Assembler.movi_label p ~rd:4 "latest";
      Assembler.instr p (Isa.Stw (4, 0, 7));
      increment_cell p ~addr_reg:4 ~scratch:5 "samples";
      Assembler.instr p (Isa.Movi (0, period_ticks));
      Assembler.instr p (Isa.Swi 2);
      Assembler.jmp_label p "loop";
      zero_cells p [ "samples"; "latest" ])

(* t0 of the use case: merge sensor reports from the inbox, drive the
   actuator, hold the 1.5 kHz period. *)
let cruise_controller ~actuator_addr =
  build ~secure:true ~stack_size:768 (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.label p "loop";
      (* Poll the inbox (r12, provided by the trusted software at start
         and preserved across interrupts by the secure context paths). *)
      Assembler.instr p (Ldw (0, 12, 0));
      Assembler.instr p (Cmpi (0, 0));
      Assembler.jz_label p "compute";
      Assembler.instr p (Ldw (1, 12, 16)); (* m0 = sensor value *)
      Assembler.instr p (Ldw (2, 12, 20)); (* m1 = tag: 1 pedal, 2 radar *)
      Assembler.instr p (Cmpi (2, 1));
      Assembler.jnz_label p "radar_report";
      Assembler.movi_label p ~rd:4 "pedal";
      Assembler.instr p (Stw (4, 0, 1));
      Assembler.jmp_label p "clear";
      Assembler.label p "radar_report";
      Assembler.movi_label p ~rd:4 "radar";
      Assembler.instr p (Stw (4, 0, 1));
      Assembler.label p "clear";
      Assembler.instr p (Movi (0, 0));
      Assembler.instr p (Stw (12, 0, 0));
      Assembler.label p "compute";
      (* command = pedal - radar correction; write to the actuator *)
      Assembler.movi_label p ~rd:4 "pedal";
      Assembler.instr p (Ldw (1, 4, 0));
      Assembler.movi_label p ~rd:4 "radar";
      Assembler.instr p (Ldw (2, 4, 0));
      Assembler.instr p (Sub (3, 1, 2));
      Assembler.instr p (Movi (6, actuator_addr));
      Assembler.instr p (Stw (6, 0, 3));
      increment_cell p ~addr_reg:4 ~scratch:5 "iterations";
      delay_one_tick p;
      Assembler.jmp_label p "loop";
      zero_cells p [ "iterations"; "pedal"; "radar" ])

let sensor_feeder ?(secure = true) ~sensor_addr ~controller ~tag
    ?(period_ticks = 1) ?(pad_instructions = 0) () =
  build ~secure ~manifest:(peer_manifest controller) (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.label p "loop";
      Assembler.instr p (Movi (6, sensor_addr));
      Assembler.instr p (Ldw (0, 6, 0)); (* m0 = reading *)
      Assembler.movi_label p ~rd:4 "latest";
      Assembler.instr p (Stw (4, 0, 0));
      increment_cell p ~addr_reg:4 ~scratch:5 "samples";
      (* reload m0: the counter bump clobbered r0 *)
      Assembler.movi_label p ~rd:4 "latest";
      Assembler.instr p (Ldw (0, 4, 0));
      Assembler.instr p (Movi (1, tag)); (* m1 = source tag *)
      send p ~receiver:controller ~mode:Ipc.mode_async;
      Assembler.instr p (Movi (0, period_ticks));
      Assembler.instr p (Swi 2);
      Assembler.jmp_label p "loop";
      for _ = 1 to pad_instructions do
        Assembler.instr p Nop
      done;
      zero_cells p [ "samples"; "latest" ])

let ipc_sender ?(secure = true) ~receiver ?(message0 = 42) ?(sync = true)
    ?(repeat = false) () =
  build ~secure ~manifest:(peer_manifest receiver) (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.label p "send";
      Assembler.instr p (Movi (0, message0));
      for i = 1 to 7 do
        Assembler.instr p (Movi (i, i))
      done;
      send p ~receiver ~mode:(if sync then Ipc.mode_sync else Ipc.mode_async);
      increment_cell p ~addr_reg:4 ~scratch:5 "sent";
      delay_one_tick p;
      if repeat then Assembler.jmp_label p "send" else rest p;
      zero_cells p [ "sent" ])

let ipc_receiver ?(secure = true) () =
  build ~secure
    ~on_message:(fun p ->
      let open Isa in
      Assembler.label p "on_message";
      Assembler.instr p (Ldw (0, 12, 16)); (* m0 *)
      Assembler.movi_label p ~rd:4 "sum";
      Assembler.instr p (Ldw (5, 4, 0));
      Assembler.instr p (Add (5, 5, 0));
      Assembler.instr p (Stw (4, 0, 5));
      increment_cell p ~addr_reg:4 ~scratch:5 "received";
      Assembler.instr p (Ldw (0, 12, 4)); (* sender id low *)
      Assembler.movi_label p ~rd:4 "last_sender";
      Assembler.instr p (Stw (4, 0, 0));
      (* consume the message *)
      Assembler.instr p (Movi (0, 0));
      Assembler.instr p (Stw (12, 0, 0));
      Assembler.instr p Ret)
    (fun p ->
      Assembler.label p "main";
      Assembler.label p "loop";
      Assembler.instr p (Isa.Movi (0, 10));
      Assembler.instr p (Isa.Swi 2);
      Assembler.jmp_label p "loop";
      zero_cells p [ "received"; "sum"; "last_sender" ])

let storage_client ~storage ~slot ~value =
  build ~secure:true ~manifest:(peer_manifest storage) (fun p ->
      let open Isa in
      Assembler.label p "main";
      (* Seal: op 1, slot, payload value in the first data word. *)
      Assembler.instr p (Movi (0, 1));
      Assembler.instr p (Movi (1, slot));
      Assembler.instr p (Movi (2, value));
      for i = 3 to 7 do
        Assembler.instr p (Movi (i, 0))
      done;
      send p ~receiver:storage ~mode:Ipc.mode_sync;
      Assembler.movi_label p ~rd:4 "phase";
      Assembler.instr p (Movi (5, 1));
      Assembler.instr p (Stw (4, 0, 5));
      delay_one_tick p;
      (* Unseal: op 2, same slot; the reply lands in our inbox. *)
      Assembler.instr p (Movi (0, 2));
      Assembler.instr p (Movi (1, slot));
      for i = 2 to 7 do
        Assembler.instr p (Movi (i, 0))
      done;
      send p ~receiver:storage ~mode:Ipc.mode_sync;
      (* reply message: m0 = status, m1 = first payload word *)
      Assembler.instr p (Ldw (0, 12, 16));
      Assembler.movi_label p ~rd:4 "status";
      Assembler.instr p (Stw (4, 0, 0));
      Assembler.instr p (Ldw (0, 12, 20));
      Assembler.movi_label p ~rd:4 "readback";
      Assembler.instr p (Stw (4, 0, 0));
      Assembler.movi_label p ~rd:4 "phase";
      Assembler.instr p (Movi (5, 2));
      Assembler.instr p (Stw (4, 0, 5));
      rest p;
      zero_cells p [ "phase"; "readback"; "status" ])

let spy ~victim_addr =
  build ~secure:false (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.instr p (Movi (6, victim_addr));
      Assembler.instr p (Ldw (7, 6, 0)); (* faults on TyTAN *)
      Assembler.movi_label p ~rd:4 "loot";
      Assembler.instr p (Stw (4, 0, 7));
      increment_cell p ~addr_reg:4 ~scratch:5 "survived";
      rest p;
      zero_cells p [ "loot"; "survived" ])

let entry_bypass ~victim_entry ~offset =
  build ~secure:false (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.instr p (Movi (6, Word.add victim_entry offset));
      Assembler.instr p (Jmpr 6); (* entry-point violation on TyTAN *)
      zero_cells p [ "pad" ])

let idt_attacker ~idt_addr =
  build ~secure:false (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.instr p (Movi (6, idt_addr));
      Assembler.instr p (Movi (7, 0xDEAD));
      Assembler.instr p (Stw (6, 0, 7)); (* faults on TyTAN *)
      increment_cell p ~addr_reg:4 ~scratch:5 "survived";
      rest p;
      zero_cells p [ "survived" ])

(* The flow-vetting demonstration exploit.  Every access lands in the
   MMIO window, control flow is clean, stack and WCET are bounded — the
   four original checks all pass — yet the task provably copies a word
   of attestation-key material into an IPC payload.  It reads the key
   derivation window (0xF000_2000; a plain number mirroring
   Flowcheck.default_config so this library stays independent of the
   analysis), then sends the key word to [receiver].  With [decoy] it
   ships a manifest naming only the decoy, so the send also leaves its
   declared topology; without, it declares no topology at all. *)
let key_leaker ?decoy ~receiver ?(key_addr = 0xF000_2000) () =
  build ~secure:true
    ?manifest:(Option.map peer_manifest decoy)
    (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.instr p (Movi (6, key_addr));
      Assembler.instr p (Ldw (0, 6, 0)); (* m0 = a key word *)
      for i = 1 to 7 do
        Assembler.instr p (Movi (i, 0))
      done;
      send p ~receiver ~mode:Ipc.mode_async;
      increment_cell p ~addr_reg:4 ~scratch:5 "sent";
      rest p;
      zero_cells p [ "sent" ])

type dispatcher = {
  telf : Telf.t;
  handler_cell : int;
  good_handler : int;
  gadget : int;
}

let gadget_dispatcher ?(stack_size = 512) () =
  let program =
    Toolchain.secure_program ()
      ~main:(fun p ->
        let open Isa in
        Assembler.label p "main";
        Assembler.label p "loop";
        (* Data-driven dispatch: fetch the handler pointer from the
           "handler" cell and call through it.  The cell is initialised
           by a relocation, so "good_handler" is the one code address
           the binary legitimately publishes. *)
        Assembler.movi_label p ~rd:4 "handler";
        Assembler.instr p (Ldw (6, 4, 0));
        Assembler.instr p (Callr 6);
        increment_cell p ~addr_reg:4 ~scratch:5 "rounds";
        delay_one_tick p;
        Assembler.jmp_label p "loop";
        (* The audited handler: meters every invocation. *)
        Assembler.label p "good_handler";
        increment_cell p ~addr_reg:4 ~scratch:5 "handled";
        Assembler.instr p Ret;
        (* A bare return — valid, measured code that skips the metering.
           Harmless where it stands (it is never reached), but a free
           gadget for an attacker who corrupts the handler pointer: the
           task keeps running cleanly, the binary still measures clean,
           only the control flow betrays the compromise. *)
        Assembler.label p "gadget";
        Assembler.instr p Ret;
        Assembler.begin_data p;
        Assembler.label p "handler";
        Assembler.word_label p "good_handler";
        Assembler.label p "rounds";
        Assembler.word p 0;
        Assembler.label p "handled";
        Assembler.word p 0)
  in
  let sym name = List.assoc name program.Assembler.symbols in
  {
    telf = Builder.of_program ~stack_size program;
    handler_cell = sym "handler";
    good_handler = sym "good_handler";
    gadget = sym "gadget";
  }

let shm_requester ~peer ~value =
  let lo, hi = Task_id.to_words peer in
  build ~secure:true ~manifest:(peer_manifest peer) (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.instr p (Movi (0, 64)); (* window size *)
      Assembler.instr p (Movi (8, lo));
      Assembler.instr p (Movi (9, hi));
      Assembler.instr p (Swi Ipc.swi_shm);
      (* the proxy's note lands in our inbox: [status; base; size] *)
      Assembler.instr p (Ldw (1, 12, 16));
      Assembler.instr p (Ldw (2, 12, 20));
      Assembler.movi_label p ~rd:4 "status";
      Assembler.instr p (Stw (4, 0, 1));
      Assembler.instr p (Movi (3, value));
      Assembler.instr p (Stw (2, 0, 3));
      Assembler.movi_label p ~rd:4 "done";
      Assembler.instr p (Movi (5, 1));
      Assembler.instr p (Stw (4, 0, 5));
      rest p;
      Assembler.begin_data p;
      Assembler.label p "status";
      Assembler.word p 99;
      Assembler.label p "done";
      Assembler.word p 0)

let shm_reader () =
  build ~secure:true (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.label p "poll";
      Assembler.instr p (Ldw (0, 12, 0));
      Assembler.instr p (Cmpi (0, 0));
      Assembler.jnz_label p "got";
      delay_one_tick p;
      Assembler.jmp_label p "poll";
      Assembler.label p "got";
      Assembler.instr p (Ldw (2, 12, 20)); (* window base *)
      Assembler.label p "read";
      Assembler.instr p (Ldw (3, 2, 0));
      Assembler.instr p (Cmpi (3, 0));
      Assembler.jnz_label p "publish";
      delay_one_tick p;
      Assembler.jmp_label p "read";
      Assembler.label p "publish";
      Assembler.movi_label p ~rd:4 "seen";
      Assembler.instr p (Stw (4, 0, 3));
      rest p;
      zero_cells p [ "seen" ])

let busy_loop ?(secure = true) ?(work = 0) () =
  build ~secure (fun p ->
      Assembler.label p "main";
      Assembler.label p "loop";
      Assembler.instr p (Isa.Addi (1, 1, 1));
      for _ = 1 to work do
        Assembler.instr p Isa.Nop
      done;
      Assembler.jmp_label p "loop";
      zero_cells p [ "pad" ])

let yielder ?(secure = true) ?(count = 5) () =
  build ~secure (fun p ->
      let open Isa in
      Assembler.label p "main";
      Assembler.label p "loop";
      increment_cell p ~addr_reg:4 ~scratch:5 "iterations";
      Assembler.movi_label p ~rd:4 "iterations";
      Assembler.instr p (Ldw (5, 4, 0));
      Assembler.instr p (Cmpi (5, count));
      Assembler.jge_label p "finish";
      Assembler.instr p (Swi 0);
      Assembler.jmp_label p "loop";
      Assembler.label p "finish";
      Assembler.instr p (Swi 1);
      zero_cells p [ "iterations" ])
