open Tytan_machine
open Tytan_eampu
open Tytan_rtos
open Tytan_core

let header_bytes = 8
let record_bytes = 12

type session = {
  tcb : Tcb.t;
  id : Task_id.t;
  log : Log.t;
  code_base : Word.t;
  code_size : int;
  ring_base : Word.t;
  ring_size : int;
  mpu_slot : int option;
}

type t = {
  platform : Platform.t;
  mux_eip : Word.t;
  mutable sessions : session list;
  mutable events : int;
}

let create platform =
  let mux_eip =
    match Platform.component_region platform "int-mux" with
    | Some r -> Region.base r
    | None -> 0
  in
  { platform; mux_eip; sessions = []; events = 0 }

let in_code s addr = addr >= s.code_base && addr < Word.add s.code_base s.code_size

(* Append one edge: charge the component's flat per-event cost, then
   write the record into the protected ring under the Int Mux's code
   identity — the EA-MPU grant names that identity, so nothing else
   (in particular no task) can forge or scrub log entries. *)
let record t s ~src ~dst ~kind =
  let cpu = Platform.cpu t.platform in
  Cycles.charge (Platform.clock t.platform) Cost_model.cfa_log_event;
  let norm a = Word.sub a s.code_base in
  let edge =
    {
      Attestation.src = norm src;
      dst = (match kind with Cpu.Swi_entry -> dst | _ -> norm dst);
      kind;
    }
  in
  let slot = Log.count s.log mod Log.capacity s.log in
  let addr = Word.add s.ring_base (header_bytes + (slot * record_bytes)) in
  Cpu.with_firmware cpu ~eip:t.mux_eip (fun () ->
      Cpu.store32 cpu addr edge.Attestation.src;
      Cpu.store32 cpu (Word.add addr 4) edge.Attestation.dst;
      Cpu.store32 cpu (Word.add addr 8) (Cpu.branch_kind_code kind);
      Cpu.store32 cpu s.ring_base (Word.of_int (Log.count s.log + 1)));
  Log.append s.log edge;
  t.events <- t.events + 1

let on_event t ~src ~dst ~kind =
  List.iter
    (fun s ->
      (* A session cares about an event when its task's code is either
         end of the edge; for SWIs the dst is a service number, so only
         the source can place the event. *)
      let relevant =
        in_code s src
        || (match kind with Cpu.Swi_entry -> false | _ -> in_code s dst)
      in
      if relevant then record t s ~src ~dst ~kind)
    t.sessions

let install_hook t =
  Cpu.set_on_branch (Platform.cpu t.platform) (fun ~src ~dst ~kind ->
      on_event t ~src ~dst ~kind)

let watch t ~tcb ?(capacity = 1024) () =
  match Platform.rtm t.platform with
  | None -> Error "control-flow attestation needs the secure platform (no RTM)"
  | Some rtm -> (
      match Rtm.find_by_tcb rtm tcb with
      | None -> Error "task is not in the RTM directory"
      | Some entry -> (
          let ring_size = header_bytes + (capacity * record_bytes) in
          match Heap.alloc (Platform.heap t.platform) ~size:ring_size with
          | None -> Error "no heap memory for the CFA log ring"
          | Some ring_base -> (
              let data = Region.make ~base:ring_base ~size:ring_size in
              let slot_result =
                match
                  ( Platform.mpu_driver t.platform,
                    Platform.component_region t.platform "int-mux" )
                with
                | Some mpu, Some mux ->
                    Result.map Option.some
                      (Mpu_driver.install_rule mpu
                         (Eampu.Grant { code = mux; data; perm = Perm.rw }))
                | _ -> Ok None
              in
              match slot_result with
              | Error e ->
                  Heap.free (Platform.heap t.platform) ring_base;
                  Error ("EA-MPU rule for the CFA log: " ^ e)
              | Ok mpu_slot ->
                  let s =
                    {
                      tcb;
                      id = entry.Rtm.id;
                      log = Log.create ~id:entry.Rtm.id ~capacity ();
                      code_base = tcb.Tcb.code_base;
                      code_size = tcb.Tcb.code_size;
                      ring_base;
                      ring_size;
                      mpu_slot;
                    }
                  in
                  let first = t.sessions = [] in
                  t.sessions <- t.sessions @ [ s ];
                  if first then install_hook t;
                  Ok s)))

let unwatch t s =
  if List.memq s t.sessions then begin
    t.sessions <- List.filter (fun x -> not (x == s)) t.sessions;
    (match (s.mpu_slot, Platform.mpu_driver t.platform) with
    | Some slot, Some mpu -> Mpu_driver.remove_slot mpu slot
    | _ -> ());
    Heap.free (Platform.heap t.platform) s.ring_base;
    if t.sessions = [] then Cpu.clear_on_branch (Platform.cpu t.platform)
  end

let find t ~id =
  List.find_opt (fun s -> Task_id.equal s.id id) t.sessions

let log s = s.log
let ring_region s = Region.make ~base:s.ring_base ~size:s.ring_size
let events_logged t = t.events

let attest t s ~nonce =
  match Platform.attestation t.platform with
  | None -> None
  | Some att ->
      Attestation.cfa_attest att ~id:s.id ~nonce
        ~cf_digest:(Log.head_digest s.log)
        ~base_digest:(Log.base_digest s.log)
        ~edge_count:(Log.count s.log) ~edges:(Log.edges s.log)

let responder t ~id ~nonce =
  match find t ~id with
  | None -> None
  | Some s -> attest t s ~nonce
