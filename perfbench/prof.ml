(* Host-time accounting by layer, and the traced run's span recorder.

   Time is charged exclusively: a stack of accounting slots is kept, and
   every clock reading charges the interval since the previous reading
   to the slot on top of the stack.  A slot's total is therefore its
   self time — its own duration minus whatever nested slots covered —
   and a layer's self time is the sum over its slots.

   Two kinds of entry share that stack:
   - [hook] wraps a call made per instruction (the EA-MPU check, the
     poll, context save/restore, the SWI services).  It updates the
     slot's totals and nothing else: no span per call.
   - [span] wraps a call the benchmark makes itself (a Cpu.run, a load
     submission, a campaign).  When recording is on it also keeps a
     span record (name, start, end, parent, operation id) and samples
     the SHA-1/SHA-256 compression counters at both ends.

   Untraced rounds install no wrapper and call none of this, so they run
   the platform's own hooks. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let layers =
  [| "bench"; "machine"; "eampu"; "rtos"; "core"; "crypto"; "netsim";
     "provision"; "ota"; "serve"; "obs" |]

let layer_index name =
  let rec go i =
    if i = Array.length layers then invalid_arg ("Prof: unknown layer " ^ name)
    else if layers.(i) = name then i
    else go (i + 1)
  in
  go 0

type slot = {
  sname : string;
  layer : int;
  mutable self_ns : int;
  mutable calls : int;
}

let slots : slot array ref = ref [||]

(* A slot is identified by its name, "layer.what"; the layer is the part
   before the first dot. *)
let layer_of name = layer_index (List.hd (String.split_on_char '.' name))

let slot name =
  let rec find i =
    if i = Array.length !slots then begin
      let layer = layer_of name in
      slots := Array.append !slots [| { sname = name; layer; self_ns = 0; calls = 0 } |];
      i
    end
    else if !slots.(i).sname = name then i
    else find (i + 1)
  in
  find 0

let bench_slot = slot "bench.harness"

let stack = Array.make 512 bench_slot
let sp = ref 0
let last = ref 0

let charge t =
  let s = !slots.(stack.(!sp)) in
  s.self_ns <- s.self_ns + (t - !last);
  last := t

let push id =
  charge (now_ns ());
  incr sp;
  stack.(!sp) <- id;
  let s = !slots.(id) in
  s.calls <- s.calls + 1

let pop_to depth =
  charge (now_ns ());
  sp := depth

(* [hook id f] runs [f] charged to slot [id]; exceptions (a denied
   access) propagate after the slot is closed. *)
let hook id f =
  let depth = !sp in
  push id;
  match f () with
  | v ->
      pop_to depth;
      v
  | exception e ->
      pop_to depth;
      raise e

(* Close the harness's own open interval, so totals can be read. *)
let flush () = charge (now_ns ())

let calls name = !slots.(slot name).calls

(* --- Spans --------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  cat : string;
  op : int;
  parent : int;  (** -1 for a root span *)
  start_ns : int;
  mutable end_ns : int;
  sha1_0 : int;
  sha256_0 : int;
  mutable sha1 : int;
  mutable sha256 : int;
  mutable args : (string * float) list;
}

let recording = ref false
let spans : span list ref = ref []
let span_count = ref 0
let open_spans : span list ref = ref []
let current_op = ref 0

let sha1 () = Tytan_crypto.Sha1.total_compressions ()
let sha256 () = Tytan_crypto.Sha256.total_compressions ()

(* Per-instruction hooks are folded into their operation's span as
   totals: the slots' self time and calls at the start of an operation,
   to be differenced when it closes. *)
let hook_marks : (int * int * int) list ref = ref []

let begin_span id =
  if !recording then begin
    let s = !slots.(id) in
    let sp =
      {
        id = !span_count;
        name = s.sname;
        cat = layers.(s.layer);
        op = !current_op;
        parent = (match !open_spans with p :: _ -> p.id | [] -> -1);
        start_ns = now_ns ();
        end_ns = 0;
        sha1_0 = sha1 ();
        sha256_0 = sha256 ();
        sha1 = 0;
        sha256 = 0;
        args = [];
      }
    in
    incr span_count;
    open_spans := sp :: !open_spans;
    Some sp
  end
  else None

let end_span = function
  | None -> ()
  | Some sp ->
      sp.end_ns <- now_ns ();
      sp.sha1 <- sha1 () - sp.sha1_0;
      sp.sha256 <- sha256 () - sp.sha256_0;
      (match !open_spans with _ :: rest -> open_spans := rest | [] -> ());
      spans := sp :: !spans

(* [span id f] is [hook id f] that also records a span. *)
let span id f =
  let rec_ = begin_span id in
  match hook id f with
  | v ->
      end_span rec_;
      v
  | exception e ->
      end_span rec_;
      raise e

(* [operation id n f] runs one benchmark operation (a tick, a churn
   cycle, a gateway slice) as a root span with operation id [n]; the
   per-instruction hook slots' deltas over it become the span's args. *)
let operation id n f =
  current_op := n;
  if !recording then
    hook_marks :=
      Array.to_list (Array.mapi (fun i s -> (i, s.self_ns, s.calls)) !slots);
  let rec_ = begin_span id in
  let v = hook id f in
  (match rec_ with
  | Some sp ->
      let args =
        List.concat_map
          (fun (i, ns0, calls0) ->
            let s = !slots.(i) in
            let dc = s.calls - calls0 in
            if i = id || dc = 0 then []
            else
              [ (s.sname ^ ".self_us", float_of_int (s.self_ns - ns0) /. 1e3);
                (s.sname ^ ".calls", float_of_int dc) ])
          !hook_marks
      in
      sp.args <- args
  | None -> ());
  end_span rec_;
  v

(* --- Output ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* Chrome trace-event JSON (complete "X" events, microseconds), which
   Perfetto and chrome://tracing load directly. *)
let write_chrome_trace ~path ~process_name ~summary =
  let all = List.rev !spans in
  let t0 = match all with s :: _ -> s.start_ns | [] -> 0 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  Printf.fprintf oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":%s}}"
    (json_string process_name);
  List.iter
    (fun s ->
      let args =
        [ ("span", float_of_int s.id); ("parent", float_of_int s.parent);
          ("op", float_of_int s.op); ("sha1_compressions", float_of_int s.sha1);
          ("sha256_compressions", float_of_int s.sha256) ]
        @ s.args
      in
      Printf.fprintf oc
        ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        (json_string s.name) (json_string s.cat)
        (float_of_int (s.start_ns - t0) /. 1e3)
        (float_of_int (s.end_ns - s.start_ns) /. 1e3)
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ json_float v) args)))
    all;
  (* The run's summary rides along as trace metadata, so one file holds
     both the spans and where the time went. *)
  let obj kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_float v) kvs) ^ "}"
  in
  Printf.fprintf oc "\n],\"otherData\":{%s}}\n"
    (String.concat "," (List.map (fun (k, kvs) -> json_string k ^ ":" ^ obj kvs) summary));
  close_out oc

(* Slot totals since [snapshot] — a round body's self time per slot. *)
let snapshot () =
  flush ();
  Array.map (fun s -> (s.self_ns, s.calls)) !slots

let since snap =
  flush ();
  Array.to_list
    (Array.mapi
       (fun i s ->
         let ns0, c0 = if i < Array.length snap then snap.(i) else (0, 0) in
         (s.sname, s.self_ns - ns0, s.calls - c0))
       !slots)
