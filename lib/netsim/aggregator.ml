open Tytan_core
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Telemetry = Tytan_telemetry.Telemetry

type entry = {
  id : Task_id.t;
  nonce : bytes;
  expected_mac : bytes;
  mutable sealed : bool;  (* a live leaf of a root sealed this epoch *)
}

type delta_entry = {
  serial : string;
  before : Task_id.t option;
  after : Task_id.t option;
}

type delta = { at_epoch : int; new_root : bytes; changed : delta_entry list }

(* One verification shard: everything a worker domain touches while
   checking reports for its device range.  Shards share nothing mutable
   with each other — per-shard key/MAC-state/measurement caches, a
   per-shard admission queue drained sequentially between slices, and a
   per-shard cycle clock merged into the main clock by commutative sum.
   That is the whole determinism argument at this layer: a device is
   pinned to one shard, so every mutation it causes is ordered by that
   shard's program order, and cross-shard effects (admission order,
   telemetry, cycle totals) are applied only from sequential code. *)
type shard = {
  sclock : Cycles.t;
  mutable absorbed : int;  (* sclock cycles already merged into clock *)
  keys : (string, bytes) Hashtbl.t;
  mac_states : (string, Crypto.Hmac.state) Hashtbl.t;
  cache : (string, entry) Hashtbl.t;
  mutable queue : (string * Task_id.t) list;  (* newest first *)
  mutable key_derivations : int;
  mutable tel_hits : int;  (* telemetry deltas not yet flushed *)
  mutable tel_misses : int;
}

(* The epoch-persistent leaf store is one Merkle.Inc slot per device
   ever verified, overwritten only when its measurement changes and
   tombstoned when it goes silent — so a steady-state epoch commits
   O(changed · log n) hashes instead of rebuilding O(n). *)
type t = {
  ka_of : serial:string -> bytes;
  clock : Cycles.t;
  telemetry : Telemetry.t;
  shards : shard array;
  sequential : bool;  (* single shard: admit + telemetry inline *)
  slots : (string, int) Hashtbl.t;  (* serial -> leaf index *)
  inc : Crypto.Merkle.Inc.t;
  mutable slot_serials : string array;
  mutable slot_ids : Task_id.t option array;  (* None = tombstoned *)
  mutable slot_epochs : int array;  (* last epoch seen alive *)
  mutable slot_count : int;
  mutable pending_delta : delta_entry list;  (* newest first *)
  mutable deltas : delta list;  (* newest first *)
  mutable last_sealed_epoch : int;
  mutable epoch : int;
  mutable seal_hook : (epoch:int -> root:bytes -> leaves:int -> unit) option;
}

let make_shard clock =
  {
    sclock = clock;
    absorbed = 0;
    keys = Hashtbl.create 64;
    mac_states = Hashtbl.create 64;
    cache = Hashtbl.create 64;
    queue = [];
    key_derivations = 0;
    tel_hits = 0;
    tel_misses = 0;
  }

let create ~ka_of ~clock ~telemetry ?(shards = 1) () =
  if shards <= 0 then invalid_arg "Aggregator.create: shards";
  let sequential = shards = 1 in
  let shards =
    (* A lone shard charges the main clock directly (the legacy
       behavior, bit-exact); true shards get private clocks merged by
       [drain]. *)
    Array.init shards (fun _ ->
        make_shard (if sequential then clock else Cycles.create ()))
  in
  {
    ka_of;
    clock;
    telemetry;
    shards;
    sequential;
    slots = Hashtbl.create 64;
    inc = Crypto.Merkle.Inc.create ();
    slot_serials = [||];
    slot_ids = [||];
    slot_epochs = [||];
    slot_count = 0;
    pending_delta = [];
    deltas = [];
    last_sealed_epoch = -1;
    epoch = 0;
    seal_hook = None;
  }

let on_seal t f = t.seal_hook <- Some f
let tally t name = Telemetry.incr t.telemetry ~component:"swarm" name

(* Length-prefixed serial, then a liveness tag and the measured
   identity.  The prefix removes serial/identity framing ambiguity; the
   0x00 tombstone is a distinct, un-forgeable payload shape. *)
let leaf ~serial id_opt =
  let s = Bytes.of_string serial in
  let hdr = Bytes.create 2 in
  Bytes.set_uint16_be hdr 0 (Bytes.length s);
  match id_opt with
  | Some id ->
      Bytes.concat Bytes.empty
        [ hdr; s; Bytes.make 1 '\x01'; Task_id.to_bytes id ]
  | None -> Bytes.concat Bytes.empty [ hdr; s; Bytes.make 1 '\x00' ]

let same_id a b =
  match (a, b) with
  | Some x, Some y -> Task_id.equal x y
  | None, None -> true
  | _ -> false

let grow_slots t n =
  if n > Array.length t.slot_serials then begin
    let cap = max 8 (max n (2 * Array.length t.slot_serials)) in
    let serials = Array.make cap "" in
    let ids = Array.make cap None in
    let epochs = Array.make cap (-1) in
    Array.blit t.slot_serials 0 serials 0 t.slot_count;
    Array.blit t.slot_ids 0 ids 0 t.slot_count;
    Array.blit t.slot_epochs 0 epochs 0 t.slot_count;
    t.slot_serials <- serials;
    t.slot_ids <- ids;
    t.slot_epochs <- epochs
  end

let admit t ~serial (id : Task_id.t) =
  match Hashtbl.find_opt t.slots serial with
  | None ->
      Cost_model.charged t.clock (fun () ->
          let idx = Crypto.Merkle.Inc.append t.inc (leaf ~serial (Some id)) in
          grow_slots t (idx + 1);
          t.slot_serials.(idx) <- serial;
          t.slot_ids.(idx) <- Some id;
          t.slot_epochs.(idx) <- t.epoch;
          t.slot_count <- idx + 1;
          Hashtbl.replace t.slots serial idx);
      t.pending_delta <-
        { serial; before = None; after = Some id } :: t.pending_delta
  | Some idx ->
      t.slot_epochs.(idx) <- t.epoch;
      let before = t.slot_ids.(idx) in
      if not (same_id before (Some id)) then begin
        Cost_model.charged t.clock (fun () ->
            Crypto.Merkle.Inc.set t.inc idx (leaf ~serial (Some id)));
        t.slot_ids.(idx) <- Some id;
        t.pending_delta <-
          { serial; before; after = Some id } :: t.pending_delta
      end

let flush t =
  if t.slot_count > 0 then begin
    (* Devices that did not check in (verified or carried) this epoch
       drop out of the sealed set: their slots become tombstones, so a
       stale proof of their membership no longer verifies. *)
    for idx = 0 to t.slot_count - 1 do
      if t.slot_epochs.(idx) <> t.epoch && t.slot_ids.(idx) <> None then begin
        let serial = t.slot_serials.(idx) in
        t.pending_delta <-
          { serial; before = t.slot_ids.(idx); after = None }
          :: t.pending_delta;
        t.slot_ids.(idx) <- None;
        Cost_model.charged t.clock (fun () ->
            Crypto.Merkle.Inc.set t.inc idx (leaf ~serial None))
      end
    done;
    if not (t.pending_delta = [] && t.last_sealed_epoch = t.epoch) then begin
      let root = Cost_model.charged t.clock (fun () -> Crypto.Merkle.Inc.commit t.inc) in
      (* Everything verified this epoch is (still) a live leaf of the
         committed tree: mark the whole epoch cache sealed so queries
         answer from it. *)
      Array.iter
        (fun sh -> Hashtbl.iter (fun _ e -> e.sealed <- true) sh.cache)
        t.shards;
      let changed = List.rev t.pending_delta in
      t.deltas <- { at_epoch = t.epoch; new_root = root; changed } :: t.deltas;
      t.pending_delta <- [];
      t.last_sealed_epoch <- t.epoch;
      tally t "batches_sealed";
      match t.seal_hook with
      | Some f -> f ~epoch:t.epoch ~root ~leaves:(List.length changed)
      | None -> ()
    end
  end

let begin_epoch t ~epoch =
  flush t;
  Array.iter (fun sh -> Hashtbl.reset sh.cache) t.shards;
  t.epoch <- epoch

let key_of t sh serial =
  match Hashtbl.find_opt sh.keys serial with
  | Some ka -> ka
  | None ->
      let ka = Cost_model.charged sh.sclock (fun () -> t.ka_of ~serial) in
      sh.key_derivations <- sh.key_derivations + 1;
      Hashtbl.replace sh.keys serial ka;
      ka

(* The per-device HMAC key schedule is computed once per campaign per
   shard; after that an expected-MAC miss costs only the two message
   compressions. *)
let mac_state_of t sh serial =
  match Hashtbl.find_opt sh.mac_states serial with
  | Some st -> st
  | None ->
      let ka = key_of t sh serial in
      let st = Cost_model.charged sh.sclock (fun () -> Crypto.Hmac.prepare ~key:ka) in
      Hashtbl.replace sh.mac_states serial st;
      st

let check_report ?(shard = 0) t ~serial ~expected ~nonce
    (report : Attestation.report) =
  let sh = t.shards.(shard) in
  Cycles.charge sh.sclock Cost_model.swarm_cache_lookup;
  if
    (not (Task_id.equal report.id expected))
    || not (Crypto.Constant_time.equal report.nonce nonce)
  then false
  else
    match Hashtbl.find_opt sh.cache serial with
    | Some e
      when Task_id.equal e.id expected
           && Crypto.Constant_time.equal e.nonce nonce ->
        if t.sequential then tally t "cache_hits"
        else sh.tel_hits <- sh.tel_hits + 1;
        Crypto.Constant_time.equal e.expected_mac report.mac
    | _ ->
        if t.sequential then tally t "cache_misses"
        else sh.tel_misses <- sh.tel_misses + 1;
        let st = mac_state_of t sh serial in
        let expected_mac =
          Cost_model.charged sh.sclock (fun () ->
              Attestation.expected_mac_with st ~id:expected ~nonce)
        in
        let genuine = Crypto.Constant_time.equal expected_mac report.mac in
        if genuine then begin
          (* Only verified measurements enter the cache: a forged report
             must never seed the fast path. *)
          Hashtbl.replace sh.cache serial
            { id = expected; nonce; expected_mac; sealed = false };
          if t.sequential then admit t ~serial expected
          else sh.queue <- (serial, expected) :: sh.queue
        end;
        genuine

(* Sequential sync point after a parallel slice: apply queued
   admissions in shard order (= device order, since the engine pins
   contiguous device ranges to shards), merge shard clocks into the
   main clock, and flush deferred telemetry.  With one shard every
   queue is empty and the clock is already the main clock — a no-op. *)
let drain t =
  if not t.sequential then begin
    Array.iter
      (fun sh ->
        let queued = List.rev sh.queue in
        sh.queue <- [];
        List.iter (fun (serial, id) -> admit t ~serial id) queued;
        if sh.tel_hits > 0 then begin
          Telemetry.add t.telemetry ~component:"swarm" "cache_hits" sh.tel_hits;
          sh.tel_hits <- 0
        end;
        if sh.tel_misses > 0 then begin
          Telemetry.add t.telemetry ~component:"swarm" "cache_misses"
            sh.tel_misses;
          sh.tel_misses <- 0
        end;
        let now = Cycles.now sh.sclock in
        let unmerged = now - sh.absorbed in
        if unmerged > 0 then begin
          Cycles.charge t.clock unmerged;
          sh.absorbed <- now
        end)
      t.shards
  end

let query ?(shard = 0) t ~serial ~epoch =
  Cycles.charge t.clock Cost_model.swarm_cache_lookup;
  epoch = t.epoch
  &&
  match Hashtbl.find_opt t.shards.(shard).cache serial with
  | Some { sealed = true; _ } ->
      (* Serving the cached measurement — the O(1) fast path the
         scalar verifier pays a full KDF + HMAC for. *)
      Cycles.charge t.clock Cost_model.swarm_root_check;
      tally t "cache_hits";
      true
  | Some { sealed = false; _ } | None -> false

let live_slot t serial =
  match Hashtbl.find_opt t.slots serial with
  | Some idx when t.slot_ids.(idx) <> None -> Some idx
  | _ -> None

let carry t ~serial =
  match live_slot t serial with
  | Some idx ->
      t.slot_epochs.(idx) <- t.epoch;
      true
  | None -> false

let carried_healthy t ~serial =
  Cycles.charge t.clock Cost_model.swarm_cache_lookup;
  match live_slot t serial with
  | Some idx when t.slot_epochs.(idx) = t.epoch ->
      Cycles.charge t.clock Cost_model.swarm_root_check;
      tally t "cache_hits";
      true
  | _ -> false

let membership_proof t ~serial =
  match live_slot t serial with
  | Some idx ->
      Some (leaf ~serial t.slot_ids.(idx), Crypto.Merkle.Inc.proof t.inc idx)
  | None -> None

let epoch_deltas t = List.rev t.deltas

let live_leaves t =
  let n = ref 0 in
  for idx = 0 to t.slot_count - 1 do
    if t.slot_ids.(idx) <> None then incr n
  done;
  !n

let key_derivations t =
  Array.fold_left (fun acc sh -> acc + sh.key_derivations) 0 t.shards
