(* The reference fleet aggregator: the oracle that
   [Tytan_netsim.Aggregator]'s verdicts and roots are checked against
   (test_fleet.ml).  It keeps none of the production shortcuts: every
   report is re-verified from scratch with [Attestation.verify] (no key,
   MAC-state or measurement cache), and every seal rebuilds the whole
   tree with [Merkle.build] over the retained leaf payloads in slot
   order, tombstones included — the rebuild-per-epoch sealing path the
   production aggregator used to ship next to its incremental one.
   Sharded admission is modelled by deferring admissions to [drain],
   which applies them in shard order. *)

open Tytan_core
module Merkle = Tytan_crypto.Merkle

type slot = { mutable id : Task_id.t option; mutable seen : int }

(* The latest verified measurement per device this epoch, and whether a
   seal has covered it since. *)
type verified = { v_id : Task_id.t; v_nonce : bytes; mutable sealed : bool }

type t = {
  ka_of : serial:string -> bytes;
  sharded : bool;
  mutable epoch : int;
  slots : (string, slot) Hashtbl.t;
  mutable order : string list;  (* slot order, newest first *)
  verified : (string, verified) Hashtbl.t;
  mutable queued : (int * string * Task_id.t) list;  (* newest first *)
  mutable dirty : bool;  (* a payload changed since the last seal *)
  mutable last_sealed_epoch : int;
  mutable roots : bytes list;  (* newest first *)
}

let create ~ka_of ~shards =
  {
    ka_of;
    sharded = shards > 1;
    epoch = 0;
    slots = Hashtbl.create 16;
    order = [];
    verified = Hashtbl.create 16;
    queued = [];
    dirty = false;
    last_sealed_epoch = -1;
    roots = [];
  }

let payload ~serial id =
  let len = Bytes.create 2 in
  Bytes.set_uint16_be len 0 (String.length serial);
  let tail =
    match id with
    | Some id -> Bytes.cat (Bytes.make 1 '\x01') (Task_id.to_bytes id)
    | None -> Bytes.make 1 '\x00'
  in
  Bytes.concat Bytes.empty [ len; Bytes.of_string serial; tail ]

let admit t ~serial id =
  match Hashtbl.find_opt t.slots serial with
  | None ->
      Hashtbl.replace t.slots serial { id = Some id; seen = t.epoch };
      t.order <- serial :: t.order;
      t.dirty <- true
  | Some slot ->
      slot.seen <- t.epoch;
      if not (Option.equal Task_id.equal slot.id (Some id)) then begin
        slot.id <- Some id;
        t.dirty <- true
      end

let check_report ?(shard = 0) t ~serial ~expected ~nonce
    (report : Attestation.report) =
  let ok = Attestation.verify ~ka:(t.ka_of ~serial) report ~expected ~nonce in
  if ok then begin
    (match Hashtbl.find_opt t.verified serial with
    | Some v when Task_id.equal v.v_id expected && Bytes.equal v.v_nonce nonce
      ->
        ()
    | _ ->
        Hashtbl.replace t.verified serial
          { v_id = expected; v_nonce = nonce; sealed = false });
    if t.sharded then t.queued <- (shard, serial, expected) :: t.queued
    else admit t ~serial expected
  end;
  ok

let drain t =
  let queued = List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
      (List.rev t.queued) in
  t.queued <- [];
  List.iter (fun (_, serial, id) -> admit t ~serial id) queued

let flush t =
  if t.order <> [] then begin
    Hashtbl.iter
      (fun _ slot ->
        if slot.seen <> t.epoch && slot.id <> None then begin
          slot.id <- None;
          t.dirty <- true
        end)
      t.slots;
    if t.dirty || t.last_sealed_epoch <> t.epoch then begin
      let leaves =
        List.rev_map
          (fun serial -> payload ~serial (Hashtbl.find t.slots serial).id)
          t.order
      in
      t.roots <- Merkle.root (Merkle.build (Array.of_list leaves)) :: t.roots;
      t.dirty <- false;
      t.last_sealed_epoch <- t.epoch;
      Hashtbl.iter (fun _ v -> v.sealed <- true) t.verified
    end
  end

let begin_epoch t ~epoch =
  flush t;
  Hashtbl.reset t.verified;
  t.epoch <- epoch

let query t ~serial ~epoch =
  epoch = t.epoch
  &&
  match Hashtbl.find_opt t.verified serial with
  | Some v -> v.sealed
  | None -> false

let live t serial =
  match Hashtbl.find_opt t.slots serial with
  | Some ({ id = Some _; _ } as slot) -> Some slot
  | _ -> None

let carry t ~serial =
  match live t serial with
  | Some slot ->
      slot.seen <- t.epoch;
      true
  | None -> false

let carried_healthy t ~serial =
  match live t serial with Some slot -> slot.seen = t.epoch | None -> false

(* The live device's leaf payload; its membership proof must verify
   against the last sealed root. *)
let member_payload t ~serial =
  Option.map (fun slot -> payload ~serial slot.id) (live t serial)

let roots t = List.rev t.roots
