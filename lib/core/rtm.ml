open Tytan_machine
open Tytan_rtos
open Tytan_telemetry
open Tytan_telf
module Sha1 = Tytan_crypto.Sha1

type entry = {
  id : Task_id.t;
  tcb : Tcb.t;
  base : Word.t;
  telf : Telf.t;
  slots : int list;
  provider : string;
}

type t = {
  cpu : Cpu.t;
  code_eip : Word.t;
  tel : Telemetry.t;
  mutable directory : entry list;
  mutable measurements : int;
}

let create ?telemetry cpu ~code_eip =
  let tel =
    match telemetry with
    | Some tel -> tel
    | None -> Telemetry.create (Cpu.clock cpu)
  in
  { cpu; code_eip; tel; directory = []; measurements = 0 }
let code_eip t = t.code_eip

(* Canonical measurement input: a fixed 16-byte header binding the entry
   point and section sizes (the "initial stack layout" is determined by
   these), followed by the position-independent image. *)
let canonical_header (telf : Telf.t) =
  let b = Bytes.create 20 in
  Bytes.set_int32_le b 0 (Int32.of_int telf.entry);
  Bytes.set_int32_le b 4 (Int32.of_int (Bytes.length telf.image));
  Bytes.set_int32_le b 8 (Int32.of_int telf.text_size);
  Bytes.set_int32_le b 12 (Int32.of_int telf.bss_size);
  Bytes.set_int32_le b 16 (Int32.of_int telf.stack_size);
  b

let identity_of_telf telf =
  let ctx = Sha1.init () in
  Sha1.feed ctx (canonical_header telf);
  Sha1.feed ctx telf.image;
  Task_id.of_digest (Sha1.finalize ctx)

type job = {
  ctx : Sha1.ctx;
  snapshot : bytes;  (** loaded image with relocation reverted *)
  mutable offset : int;
  span : int;  (** telemetry span covering the whole measurement *)
}

let start_measure t ~base ~(telf : Telf.t) =
  let clock = Cpu.clock t.cpu in
  let span = Telemetry.begin_span t.tel ~component:"rtm" "measure" in
  Cycles.charge clock Cost_model.rtm_measure_base;
  let snapshot =
    Cpu.with_firmware t.cpu ~eip:t.code_eip (fun () ->
        Cpu.load_bytes t.cpu base (Bytes.length telf.image))
  in
  (* Temporarily revert the changes made during relocation so the digest
     is position independent (paper §4, "RTM task"). *)
  Relocate.revert ~base ~image:snapshot ~relocations:telf.relocations;
  Cycles.charge clock
    (Cost_model.rtm_revert_base
    + (Array.length telf.relocations * Cost_model.rtm_revert_per_address));
  let ctx = Sha1.init () in
  Sha1.feed ctx (canonical_header telf);
  { ctx; snapshot; offset = 0; span }

(* One step = one 64-byte block, so the total measurement cost is
   base + blocks · per_block (Table 7); the final step also pays for
   the digest finalisation. *)
let step_measure t job =
  let clock = Cpu.clock t.cpu in
  Cycles.charge clock Cost_model.rtm_per_block;
  let remaining = Bytes.length job.snapshot - job.offset in
  let len = min Sha1.block_size remaining in
  if len > 0 then Sha1.feed_sub job.ctx job.snapshot ~pos:job.offset ~len;
  job.offset <- job.offset + len;
  if job.offset >= Bytes.length job.snapshot then begin
    t.measurements <- t.measurements + 1;
    Telemetry.end_span t.tel job.span;
    Telemetry.incr t.tel ~component:"rtm" "measurements";
    `Done (Task_id.of_digest (Sha1.finalize job.ctx))
  end
  else `More

let measure t ~base ~telf =
  let job = start_measure t ~base ~telf in
  let rec finish () =
    match step_measure t job with
    | `More -> finish ()
    | `Done id -> id
  in
  finish ()

let register t entry = t.directory <- entry :: t.directory

let unregister t id =
  t.directory <- List.filter (fun e -> not (Task_id.equal e.id id)) t.directory

let unregister_tcb t (tcb : Tcb.t) =
  t.directory <- List.filter (fun e -> e.tcb.Tcb.id <> tcb.id) t.directory

let find t id = List.find_opt (fun e -> Task_id.equal e.id id) t.directory

let find_by_eip t eip =
  let owns e =
    eip >= e.tcb.Tcb.code_base
    && eip < Word.add e.tcb.Tcb.code_base e.tcb.Tcb.code_size
  in
  List.find_opt owns t.directory

let find_by_tcb t (tcb : Tcb.t) =
  List.find_opt (fun e -> e.tcb.Tcb.id = tcb.id) t.directory

let all t = t.directory
let measurements t = t.measurements
