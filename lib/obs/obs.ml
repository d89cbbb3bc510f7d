module Crypto = Tytan_crypto
module Export = Tytan_telemetry.Export

(* No tab or newline may survive into a rendered field: the record
   encoding is tab-separated and the chain hashes the encoding, so a
   hostile string must not be able to forge field boundaries. *)
let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

module Event = struct
  type t =
    | Session_admitted of { serial : string; kind : string }
    | Session_shed of { serial : string; reason : string }
    | Session_settled of { serial : string; verdict : string; latency : int }
    | Frame_sent of { kind : string }
    | Frame_received of { kind : string }
    | Breaker_tripped of { serial : string }
    | Quarantined of { serial : string }
    | Evicted of { serial : string }
    | Epoch_opened of { epoch : int }
    | Epoch_sealed of { epoch : int; root_hex : string; leaves : int }
    | Wave_opened of { wave : int; label : string; version : int }
    | Wave_promoted of { wave : int }
    | Wave_aborted of { wave : int; reason : string }
    | Offer_sent of { serial : string; version : int }
    | Transfer_staged of { serial : string }
    | Swap_applied of { serial : string; counter : int }
    | Update_refused of { serial : string; reason : string }
    | Verdict_settled of { serial : string; verdict : string }
    | Slo_breach of {
        indicator : string;
        window : int;
        value : int;
        threshold : int;
      }
    | Note of { label : string }

  let label = function
    | Session_admitted _ -> "session-admitted"
    | Session_shed _ -> "session-shed"
    | Session_settled _ -> "session-settled"
    | Frame_sent _ -> "frame-sent"
    | Frame_received _ -> "frame-received"
    | Breaker_tripped _ -> "breaker-tripped"
    | Quarantined _ -> "quarantined"
    | Evicted _ -> "evicted"
    | Epoch_opened _ -> "epoch-opened"
    | Epoch_sealed _ -> "epoch-sealed"
    | Wave_opened _ -> "wave-opened"
    | Wave_promoted _ -> "wave-promoted"
    | Wave_aborted _ -> "wave-aborted"
    | Offer_sent _ -> "offer-sent"
    | Transfer_staged _ -> "transfer-staged"
    | Swap_applied _ -> "swap-applied"
    | Update_refused _ -> "update-refused"
    | Verdict_settled _ -> "verdict-settled"
    | Slo_breach _ -> "slo-breach"
    | Note _ -> "note"

  let render e =
    sanitize
      (match e with
      | Session_admitted { serial; kind } ->
          Printf.sprintf "serial=%s kind=%s" serial kind
      | Session_shed { serial; reason } ->
          Printf.sprintf "serial=%s reason=%s" serial reason
      | Session_settled { serial; verdict; latency } ->
          Printf.sprintf "serial=%s verdict=%s latency=%d" serial verdict
            latency
      | Frame_sent { kind } -> Printf.sprintf "kind=%s" kind
      | Frame_received { kind } -> Printf.sprintf "kind=%s" kind
      | Breaker_tripped { serial } -> Printf.sprintf "serial=%s" serial
      | Quarantined { serial } -> Printf.sprintf "serial=%s" serial
      | Evicted { serial } -> Printf.sprintf "serial=%s" serial
      | Epoch_opened { epoch } -> Printf.sprintf "epoch=%d" epoch
      | Epoch_sealed { epoch; root_hex; leaves } ->
          Printf.sprintf "epoch=%d root=%s leaves=%d" epoch root_hex leaves
      | Wave_opened { wave; label; version } ->
          Printf.sprintf "wave=%d label=%s version=%d" wave label version
      | Wave_promoted { wave } -> Printf.sprintf "wave=%d" wave
      | Wave_aborted { wave; reason } ->
          Printf.sprintf "wave=%d reason=%s" wave reason
      | Offer_sent { serial; version } ->
          Printf.sprintf "serial=%s version=%d" serial version
      | Transfer_staged { serial } -> Printf.sprintf "serial=%s" serial
      | Swap_applied { serial; counter } ->
          Printf.sprintf "serial=%s counter=%d" serial counter
      | Update_refused { serial; reason } ->
          Printf.sprintf "serial=%s reason=%s" serial reason
      | Verdict_settled { serial; verdict } ->
          Printf.sprintf "serial=%s verdict=%s" serial verdict
      | Slo_breach { indicator; window; value; threshold } ->
          Printf.sprintf "indicator=%s window=%d value=%d threshold=%d"
            indicator window value threshold
      | Note { label } -> Printf.sprintf "label=%s" label)
end

type record = {
  seq : int;
  at : int;
  corr : string;
  parent : string option;
  event : Event.t;
}

(* The canonical record encoding — what the chain and the checkpoints
   hash, and what [export] frames.  Tab-separated; every string field
   is sanitized, so the six fields are unambiguous. *)
let encode_record (r : record) =
  Printf.sprintf "%d\t%d\t%s\t%s\t%s\t%s" r.seq r.at (sanitize r.corr)
    (match r.parent with None -> "-" | Some p -> sanitize p)
    (Event.label r.event) (Event.render r.event)

let genesis = Crypto.Sha256.digest_string "tytan-obs-genesis"

let chain_step head line =
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx head;
  (* [feed_sub] only reads its input, so the line is hashed without a
     copy. *)
  Crypto.Sha256.feed_sub ctx (Bytes.unsafe_of_string line) ~pos:0
    ~len:(String.length line);
  Crypto.Sha256.finalize ctx

module Log = struct
  type checkpoint = { upto : int; root : bytes }

  type t = {
    checkpoint_every : int;
    mutable rev_records : record list;
    mutable count : int;
    mutable head : bytes;
    mutable rev_window : string list;  (* encodings since last checkpoint *)
    mutable window_n : int;
    mutable rev_checkpoints : checkpoint list;
    parents : (string, string option) Hashtbl.t;
    mutable rev_minted : string list;
  }

  let create ?(checkpoint_every = 64) () =
    if checkpoint_every <= 0 then
      invalid_arg "Obs.Log.create: checkpoint_every must be positive";
    {
      checkpoint_every;
      rev_records = [];
      count = 0;
      head = genesis;
      rev_window = [];
      window_n = 0;
      rev_checkpoints = [];
      parents = Hashtbl.create 64;
      rev_minted = [];
    }

  let mint t ?parent corr =
    if not (Hashtbl.mem t.parents corr) then begin
      Hashtbl.replace t.parents corr parent;
      t.rev_minted <- corr :: t.rev_minted
    end;
    corr

  let parent_of t corr =
    match Hashtbl.find_opt t.parents corr with
    | Some p -> p
    | None -> None

  let window_root lines =
    Crypto.Merkle.root
      (Crypto.Merkle.build
         (Array.of_list (List.rev_map Bytes.of_string lines)))

  let record t ~corr ~at event =
    ignore (mint t corr);
    let r =
      { seq = t.count; at; corr; parent = parent_of t corr; event }
    in
    let line = encode_record r in
    t.rev_records <- r :: t.rev_records;
    t.count <- t.count + 1;
    t.head <- chain_step t.head line;
    t.rev_window <- line :: t.rev_window;
    t.window_n <- t.window_n + 1;
    if t.window_n >= t.checkpoint_every then begin
      t.rev_checkpoints <-
        { upto = t.count; root = window_root t.rev_window }
        :: t.rev_checkpoints;
      t.rev_window <- [];
      t.window_n <- 0
    end

  let length t = t.count
  let records t = List.rev t.rev_records
  let head_hex t = Crypto.Sha256.to_hex t.head

  let corr_ids t =
    List.rev_map (fun c -> (c, parent_of t c)) t.rev_minted

  (* ---- binary trail --------------------------------------------------- *)

  let magic = "TYOB1"

  let put_u32 buf n =
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (n land 0xFF))

  let export t =
    (* Seal the trailing partial window on the way out, so every record
       of the trail sits under some checkpoint. *)
    let checkpoints =
      List.rev
        (if t.window_n > 0 then
           { upto = t.count; root = window_root t.rev_window }
           :: t.rev_checkpoints
         else t.rev_checkpoints)
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    put_u32 buf t.count;
    List.iter
      (fun r ->
        let line = encode_record r in
        put_u32 buf (String.length line);
        Buffer.add_string buf line)
      (records t);
    put_u32 buf (List.length checkpoints);
    List.iter
      (fun { upto; root } ->
        put_u32 buf upto;
        Buffer.add_bytes buf root)
      checkpoints;
    Buffer.add_bytes buf t.head;
    Buffer.to_bytes buf

  type chain_summary = {
    total : int;
    checkpoints : int;
    head : string;
  }

  (* Defensive structural decode: cursor with explicit bounds checks,
     result-typed — feeding [verify_chain] arbitrary bytes must end in
     [Error], never an exception. *)
  type decoded = {
    d_lines : string list;  (* record encodings, log order *)
    d_checkpoints : (int * bytes) list;
    d_head : bytes;
  }

  let decode blob =
    let len = Bytes.length blob in
    let pos = ref 0 in
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let take n label =
      if n < 0 || !pos + n > len then
        Error (Printf.sprintf "truncated: %s at byte %d" label !pos)
      else begin
        let s = Bytes.sub_string blob !pos n in
        pos := !pos + n;
        Ok s
      end
    in
    let u32 label =
      let* s = take 4 label in
      Ok
        ((Char.code s.[0] lsl 24)
        lor (Char.code s.[1] lsl 16)
        lor (Char.code s.[2] lsl 8)
        lor Char.code s.[3])
    in
    let* m = take (String.length magic) "magic" in
    if m <> magic then Error "bad magic: not an obs trail"
    else
      let* count = u32 "record count" in
      if count > len then Error "record count exceeds trail size"
      else
        let rec read_records i acc =
          if i = count then Ok (List.rev acc)
          else
            let* n = u32 (Printf.sprintf "record %d length" i) in
            let* line = take n (Printf.sprintf "record %d" i) in
            read_records (i + 1) (line :: acc)
        in
        let* lines = read_records 0 [] in
        let* ck_count = u32 "checkpoint count" in
        if ck_count > len then Error "checkpoint count exceeds trail size"
        else
          let rec read_cks i acc =
            if i = ck_count then Ok (List.rev acc)
            else
              let* upto = u32 (Printf.sprintf "checkpoint %d bound" i) in
              let* root = take 32 (Printf.sprintf "checkpoint %d root" i) in
              read_cks (i + 1) ((upto, Bytes.of_string root) :: acc)
          in
          let* cks = read_cks 0 [] in
          let* head = take 32 "chain head" in
          if !pos <> len then Error "trailing garbage after chain head"
          else
            Ok { d_lines = lines; d_checkpoints = cks; d_head = Bytes.of_string head }

  let verify_chain ?expected_head blob =
    match decode blob with
    | Error e -> Error e
    | Ok d -> (
        (* Sequence numbers must be dense from zero: a spliced-out
           record shows up here even before the chain disagrees. *)
        let seq_ok =
          List.for_all2
            (fun i line ->
              match String.index_opt line '\t' with
              | None -> false
              | Some t -> (
                  match int_of_string_opt (String.sub line 0 t) with
                  | Some seq -> seq = i
                  | None -> false))
            (List.init (List.length d.d_lines) Fun.id)
            d.d_lines
        in
        if not seq_ok then Error "sequence numbering broken (splice?)"
        else
          let head =
            List.fold_left (fun h line -> chain_step h line) genesis d.d_lines
          in
          if not (Bytes.equal head d.d_head) then
            Error "chain head mismatch: a record was altered or reordered"
          else
            let total = List.length d.d_lines in
            let lines = Array.of_list d.d_lines in
            let rec check_cks prev = function
              | [] ->
                  if prev <> total then
                    Error
                      (Printf.sprintf
                         "checkpoints cover %d of %d records" prev total)
                  else Ok ()
              | (upto, root) :: rest ->
                  if upto <= prev || upto > total then
                    Error "checkpoint bounds out of order"
                  else
                    let window =
                      Array.to_list (Array.sub lines prev (upto - prev))
                    in
                    let recomputed =
                      Crypto.Merkle.root
                        (Crypto.Merkle.build
                           (Array.of_list (List.map Bytes.of_string window)))
                    in
                    if not (Bytes.equal recomputed root) then
                      Error
                        (Printf.sprintf
                           "checkpoint root mismatch over records %d..%d" prev
                           (upto - 1))
                    else check_cks upto rest
            in
            let cks_result =
              if total = 0 && d.d_checkpoints = [] then Ok ()
              else check_cks 0 d.d_checkpoints
            in
            match cks_result with
            | Error e -> Error e
            | Ok () -> (
                let head_hex = Crypto.Sha256.to_hex head in
                match expected_head with
                | Some h when h <> head_hex ->
                    Error "chain head does not match the pinned head"
                | _ ->
                    Ok
                      {
                        total;
                        checkpoints = List.length d.d_checkpoints;
                        head = head_hex;
                      }))

  type tamper =
    | Truncate
    | Splice
    | Bit_flip of int

  let reencode d =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    put_u32 buf (List.length d.d_lines);
    List.iter
      (fun line ->
        put_u32 buf (String.length line);
        Buffer.add_string buf line)
      d.d_lines;
    put_u32 buf (List.length d.d_checkpoints);
    List.iter
      (fun (upto, root) ->
        put_u32 buf upto;
        Buffer.add_bytes buf root)
      d.d_checkpoints;
    Buffer.add_bytes buf d.d_head;
    Buffer.to_bytes buf

  let tamper kind blob =
    let d =
      match decode blob with
      | Ok d -> d
      | Error e -> invalid_arg ("Obs.Log.tamper: " ^ e)
    in
    let n = List.length d.d_lines in
    match kind with
    | Truncate ->
        if n < 1 then invalid_arg "Obs.Log.tamper: nothing to truncate";
        reencode
          { d with d_lines = List.filteri (fun i _ -> i < n - 1) d.d_lines }
    | Splice ->
        if n < 2 then invalid_arg "Obs.Log.tamper: too short to splice";
        let i = n / 2 in
        let arr = Array.of_list d.d_lines in
        let tmp = arr.(i - 1) in
        arr.(i - 1) <- arr.(i);
        arr.(i) <- tmp;
        reencode { d with d_lines = Array.to_list arr }
    | Bit_flip i ->
        if n < 1 then invalid_arg "Obs.Log.tamper: no records to flip";
        let blob = Bytes.copy blob in
        (* Restrict the flip to the framed record region so the blob
           still parses: the chain, not the parser, must catch it. *)
        let start = String.length magic + 4 in
        let region =
          List.fold_left (fun a l -> a + 4 + String.length l) 0 d.d_lines
        in
        let bit = ((i mod (region * 8)) + (region * 8)) mod (region * 8) in
        let byte = start + (bit / 8) in
        Bytes.set blob byte
          (Char.chr (Char.code (Bytes.get blob byte) lxor (1 lsl (bit mod 8))));
        blob
end

module Slo = struct
  type spec = {
    window : int;
    shed_permille_max : int;
    p99_settle_max : int;
    quarantine_max : int;
    abort_permille_max : int;
  }

  let default_spec =
    {
      window = 64;
      shed_permille_max = 500;
      p99_settle_max = 64;
      quarantine_max = 2;
      abort_permille_max = 350;
    }

  type indicator = {
    name : string;
    window_start : int;
    value : int;
    threshold : int;
    breached : bool;
  }

  type bucket = {
    mutable arrivals : int;
    mutable sheds : int;
    mutable latencies : int list;
    mutable quarantines : int;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0 else sorted.(max 0 (((p * n) + 99) / 100 - 1))

  let evaluate ?(spec = default_spec) log =
    let buckets : (int, bucket) Hashtbl.t = Hashtbl.create 16 in
    let bucket at =
      let w = at / spec.window in
      match Hashtbl.find_opt buckets w with
      | Some b -> b
      | None ->
          let b =
            { arrivals = 0; sheds = 0; latencies = []; quarantines = 0 }
          in
          Hashtbl.replace buckets w b;
          b
    in
    let promoted = ref 0 and aborted = ref 0 in
    List.iter
      (fun (r : record) ->
        match r.event with
        | Event.Session_admitted _ ->
            let b = bucket r.at in
            b.arrivals <- b.arrivals + 1
        | Event.Session_shed _ ->
            let b = bucket r.at in
            b.arrivals <- b.arrivals + 1;
            b.sheds <- b.sheds + 1
        | Event.Session_settled { latency; _ } ->
            let b = bucket r.at in
            b.latencies <- latency :: b.latencies
        | Event.Quarantined _ ->
            let b = bucket r.at in
            b.quarantines <- b.quarantines + 1
        | Event.Wave_promoted _ -> incr promoted
        | Event.Wave_aborted _ -> incr aborted
        | _ -> ())
      (Log.records log);
    let windows =
      Hashtbl.fold (fun w _ acc -> w :: acc) buckets [] |> List.sort compare
    in
    let per_window =
      List.concat_map
        (fun w ->
          let b = Hashtbl.find buckets w in
          let start = w * spec.window in
          let shed_permille =
            if b.arrivals = 0 then 0 else b.sheds * 1000 / b.arrivals
          in
          let sorted = Array.of_list b.latencies in
          Array.sort compare sorted;
          let p99 = percentile sorted 99 in
          [
            {
              name = "p99-settle";
              window_start = start;
              value = p99;
              threshold = spec.p99_settle_max;
              breached = p99 > spec.p99_settle_max;
            };
            {
              name = "quarantines";
              window_start = start;
              value = b.quarantines;
              threshold = spec.quarantine_max;
              breached = b.quarantines > spec.quarantine_max;
            };
            {
              name = "shed-rate";
              window_start = start;
              value = shed_permille;
              threshold = spec.shed_permille_max;
              breached = shed_permille > spec.shed_permille_max;
            };
          ])
        windows
    in
    let run_level =
      let offered = !promoted + !aborted in
      if offered = 0 then []
      else
        let permille = !aborted * 1000 / offered in
        [
          {
            name = "ota-abort-rate";
            window_start = 0;
            value = permille;
            threshold = spec.abort_permille_max;
            breached = permille > spec.abort_permille_max;
          };
        ]
    in
    per_window @ run_level

  let scan ?(spec = default_spec) log =
    let indicators = evaluate ~spec log in
    let last_at =
      List.fold_left (fun a (r : record) -> max a r.at) 0 (Log.records log)
    in
    List.iter
      (fun i ->
        if i.breached then
          Log.record log ~corr:"slo"
            ~at:(max last_at (i.window_start + spec.window - 1))
            (Event.Slo_breach
               {
                 indicator = i.name;
                 window = i.window_start;
                 value = i.value;
                 threshold = i.threshold;
               }))
      indicators;
    indicators
end

module Trail = struct
  let ancestors log ~corr =
    (* Walk up the parent chain; a registry cycle cannot happen (mint
       is first-wins) but cap the walk anyway. *)
    let rec up acc c n =
      if n > 1000 then acc
      else
        match Log.parent_of log c with
        | Some p -> up (p :: acc) p (n + 1)
        | None -> acc
    in
    up [] corr 0

  let members log ~corr =
    let is_descendant c =
      let rec up c n =
        if n > 1000 then false
        else
          match Log.parent_of log c with
          | Some p -> p = corr || up p (n + 1)
          | None -> false
      in
      c <> corr && up c 0
    in
    let descendants =
      List.filter_map
        (fun (c, _) -> if is_descendant c then Some c else None)
        (Log.corr_ids log)
    in
    ancestors log ~corr @ [ corr ] @ descendants

  let trace log ~corr =
    let family = members log ~corr in
    List.filter (fun (r : record) -> List.mem r.corr family) (Log.records log)

  let record_json (r : record) =
    Printf.sprintf
      "{\"seq\":%d,\"at\":%d,\"corr\":%s,\"parent\":%s,\"event\":%s,\"detail\":%s}"
      r.seq r.at
      (Export.json_string r.corr)
      (match r.parent with
      | None -> "null"
      | Some p -> Export.json_string p)
      (Export.json_string (Event.label r.event))
      (Export.json_string (Event.render r.event))

  let to_json log ~corr =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"corr\": %s,\n" (Export.json_string corr));
    Buffer.add_string buf "  \"chain\": [";
    let chain = ancestors log ~corr @ [ corr ] in
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Export.json_string c))
      chain;
    Buffer.add_string buf "],\n  \"records\": [\n";
    let rs = trace log ~corr in
    let n = List.length rs in
    List.iteri
      (fun i r ->
        Buffer.add_string buf ("    " ^ record_json r);
        if i < n - 1 then Buffer.add_string buf ",";
        Buffer.add_string buf "\n")
      rs;
    Buffer.add_string buf "  ]\n}\n";
    Buffer.contents buf
end

let first_at log =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (r : record) ->
      if not (Hashtbl.mem table r.corr) then Hashtbl.replace table r.corr r.at)
    (Log.records log);
  table

let flows_of_log log =
  let firsts = first_at log in
  let id = ref 0 in
  List.filter_map
    (fun (corr, parent) ->
      match parent with
      | None -> None
      | Some p -> (
          match (Hashtbl.find_opt firsts p, Hashtbl.find_opt firsts corr) with
          | Some src_ts, Some dst_ts ->
              incr id;
              Some
                {
                  Export.flow_id = !id;
                  flow_name = corr;
                  src_ts;
                  dst_ts;
                }
          | _ -> None))
    (Log.corr_ids log)

let marks_of_log log =
  List.map
    (fun (r : record) ->
      {
        Export.mark_ts = r.at;
        mark_name = Event.label r.event ^ ": " ^ r.corr;
        mark_cat = "obs";
      })
    (Log.records log)

let to_json ?(slo = []) log =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"records\": %d,\n" (Log.length log));
  Buffer.add_string buf
    (Printf.sprintf "  \"head\": %s,\n" (Export.json_string (Log.head_hex log)));
  Buffer.add_string buf "  \"corr_ids\": [\n";
  let ids = Log.corr_ids log in
  let n = List.length ids in
  List.iteri
    (fun i (c, p) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"id\": %s, \"parent\": %s}%s\n"
           (Export.json_string c)
           (match p with None -> "null" | Some p -> Export.json_string p)
           (if i < n - 1 then "," else "")))
    ids;
  Buffer.add_string buf "  ],\n  \"events\": [\n";
  let rs = Log.records log in
  let n = List.length rs in
  List.iteri
    (fun i r ->
      Buffer.add_string buf ("    " ^ Trail.record_json r);
      if i < n - 1 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n")
    rs;
  Buffer.add_string buf "  ],\n  \"slo\": [\n";
  let n = List.length slo in
  List.iteri
    (fun i (ind : Slo.indicator) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %s, \"window\": %d, \"value\": %d, \"threshold\": \
            %d, \"breached\": %b}%s\n"
           (Export.json_string ind.name)
           ind.window_start ind.value ind.threshold ind.breached
           (if i < n - 1 then "," else "")))
    slo;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
