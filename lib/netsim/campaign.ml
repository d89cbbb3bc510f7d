open Tytan_core
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Telemetry = Tytan_telemetry.Telemetry
module Obs = Tytan_obs.Obs

let serial_of i = Printf.sprintf "dev-%05d" i

let link ~seed ~salt ~faults ~loss_percent i =
  let hostile = if faults then 2 else 0 in
  Link.create
    ~seed:(((seed * 7919) + (i * 104729) + salt) land 0x3FFF_FFFF)
    ~loss_percent
    ~corrupt_percent:(if faults then 3 else 0)
    ~duplicate_percent:hostile ~reorder_percent:hostile ()

let frame_totals links =
  Array.fold_left
    (fun (s, d, v) l ->
      (s + Link.sent_count l, d + Link.dropped_count l, v + Link.delivered_count l))
    (0, 0, 0) links

let answer ~clock ~ka ~loaded ?genesis msg =
  match msg with
  | Protocol.Challenge { seq; id; nonce } ->
      if Task_id.equal id loaded then
        let mac =
          Cost_model.charged clock (fun () -> Attestation.expected_mac ~ka ~id ~nonce)
        in
        Some (Protocol.Response { seq; report = { Attestation.id; nonce; mac } })
      else Some (Protocol.Refusal { seq })
  | Protocol.CfaChallenge { seq; id; nonce } -> (
      match genesis with
      | None -> None
      | Some _ when not (Task_id.equal id loaded) -> Some (Protocol.Refusal { seq })
      | Some genesis ->
          (* Quiescent device: the honest answer is the empty log,
             anchored at the genesis digest. *)
          let genesis = Lazy.force genesis in
          let mac =
            Cost_model.charged clock (fun () ->
                Attestation.expected_cfa_mac ~ka ~id ~nonce ~cf_digest:genesis
                  ~base_digest:genesis ~edge_count:0)
          in
          Some
            (Protocol.CfaResponse
               {
                 seq;
                 report =
                   {
                     Attestation.id;
                     nonce;
                     cf_digest = genesis;
                     base_digest = genesis;
                     edge_count = 0;
                     edges = [||];
                     mac;
                   };
               }))
  | Protocol.Response _ | Protocol.Refusal _ | Protocol.CfaResponse _
  | Protocol.UpdateOffer _ | Protocol.UpdateChunk _ | Protocol.UpdateAck _ ->
      None

(* Observation must not perturb the run: costs are zeroed (the chaos
   campaign's discipline), so enabling telemetry leaves every clock
   bit-identical. *)
let telemetry clock =
  let t = Telemetry.create ~per_event_cost:0 ~per_span_cost:0 clock in
  Telemetry.enable t;
  t

let counters t =
  List.map (fun (k, v) -> (Telemetry.key_to_string k, v)) (Telemetry.counters t)

let observe obs ~corr ~at event =
  match obs with
  | None -> ()
  | Some log -> Obs.Log.record log ~corr ~at event

let mint obs ?parent corr =
  match obs with
  | None -> ()
  | Some log -> ignore (Obs.Log.mint log ?parent corr)

let settle_cap (b : Verifier.backoff) =
  16 + (10 * (b.Verifier.cap_slices + b.Verifier.jitter_slices))

let concede ~cap v =
  let at = ref (2 * cap) in
  while Verifier.outcome v = Verifier.Pending do
    ignore (Verifier.poll v ~at:!at);
    at := !at + cap
  done

let quiescent ~genesis (r : Attestation.cfa_report) =
  if
    r.Attestation.edge_count = 0
    && Bytes.equal r.Attestation.cf_digest genesis
    && Bytes.equal r.Attestation.base_digest genesis
  then Ok ()
  else Error "non-empty control-flow log from a quiescent device"

let sha1_hex s = Crypto.Sha1.to_hex (Crypto.Sha1.digest_string s)

let to_string body r =
  let body = body r in
  body ^ Printf.sprintf "digest: sha1:%s\n" (sha1_hex body)

let equal body a b = to_string body a = to_string body b
