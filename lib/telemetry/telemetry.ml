open Tytan_machine

type key = {
  component : string;
  name : string;
  task : string option;
}

let key ?task ~component name = { component; name; task }

let compare_key a b =
  match String.compare a.component b.component with
  | 0 -> (
      match String.compare a.name b.name with
      | 0 -> Option.compare String.compare a.task b.task
      | c -> c)
  | c -> c

let key_to_string k =
  match k.task with
  | None -> Printf.sprintf "%s.%s" k.component k.name
  | Some task -> Printf.sprintf "%s.%s{task=%s}" k.component k.name task

(* Log-bucketed histogram over non-negative cycle counts.  Bucket 0 holds
   observations <= 0; bucket [i] (i >= 1) holds [2^(i-1), 2^i).  With
   63-bit OCaml ints the largest observation (max_int) lands in the last
   bucket, index 62. *)

let bucket_count = 63

let bucket_index v =
  if v <= 0 then 0
  else begin
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
    let i = 1 + log2 0 v in
    if i >= bucket_count then bucket_count - 1 else i
  end

let bucket_lower i = if i <= 0 then 0 else 1 lsl (i - 1)

let bucket_upper i =
  if i <= 0 then 0
  else if i >= bucket_count - 1 then max_int
  else (1 lsl i) - 1

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
}

type histogram_snapshot = {
  count : int;
  sum : int;
  min_value : int;
  max_value : int;
  nonzero_buckets : (int * int) list;
}

type span = {
  span_key : key;
  start_cycle : int;
  duration : int;
  depth : int;
}

type open_span = {
  os_id : int;
  os_key : key;
  os_start : int;
  os_depth : int;
}

type t = {
  clock : Cycles.t;
  span_capacity : int;
  mutable enabled : bool;
  mutable per_event_cost : int;
  mutable per_span_cost : int;
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, int ref) Hashtbl.t;
  histograms : (key, histogram) Hashtbl.t;
  mutable open_spans : open_span list;  (* innermost first *)
  spans : span Queue.t;
  mutable next_span_id : int;
  mutable events_recorded : int;
  mutable spans_recorded : int;
  mutable spans_dropped : int;
  mutable mis_nested : int;
}

let create ?(span_capacity = 4096) ?(per_event_cost = 0) ?(per_span_cost = 0)
    clock =
  {
    clock;
    span_capacity;
    enabled = false;
    per_event_cost;
    per_span_cost;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    open_spans = [];
    spans = Queue.create ();
    next_span_id = 1;
    events_recorded = 0;
    spans_recorded = 0;
    spans_dropped = 0;
    mis_nested = 0;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enabled t = t.enabled
let clock t = t.clock

let set_costs t ~per_event ~per_span =
  t.per_event_cost <- per_event;
  t.per_span_cost <- per_span

let per_event_cost t = t.per_event_cost
let per_span_cost t = t.per_span_cost

(* Every recorded event charges the simulated clock — instrumentation is
   part of the machine, so observation has an honest, modelled cost. *)
let charge_event t =
  t.events_recorded <- t.events_recorded + 1;
  Cycles.charge t.clock t.per_event_cost

let[@inline] incr ?task t ~component name =
  if t.enabled then begin
    charge_event t;
    let k = { component; name; task } in
    match Hashtbl.find_opt t.counters k with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.add t.counters k (ref 1)
  end

let[@inline] add ?task t ~component name v =
  if t.enabled then begin
    charge_event t;
    let k = { component; name; task } in
    match Hashtbl.find_opt t.counters k with
    | Some r -> r := !r + v
    | None -> Hashtbl.add t.counters k (ref v)
  end

let[@inline] set_gauge ?task t ~component name v =
  if t.enabled then begin
    charge_event t;
    let k = { component; name; task } in
    match Hashtbl.find_opt t.gauges k with
    | Some r -> r := v
    | None -> Hashtbl.add t.gauges k (ref v)
  end

(* Find-or-create the histogram under [k] and add one sample. *)
let add_sample t k v =
  let h =
    match Hashtbl.find_opt t.histograms k with
    | Some h -> h
    | None ->
        let h =
          {
            h_count = 0;
            h_sum = 0;
            h_min = max_int;
            h_max = min_int;
            buckets = Array.make bucket_count 0;
          }
        in
        Hashtbl.add t.histograms k h;
        h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1

let[@inline] observe ?task t ~component name v =
  if t.enabled then begin
    charge_event t;
    add_sample t { component; name; task } v
  end

(* Spans.  [begin_span] returns an opaque id (0 when disabled: a valid
   argument to [end_span], which treats it as a no-op).  Spans may close
   out of order — interruptible jobs (RTM measurement, loader phases,
   synchronous IPC sessions) legitimately overlap kernel service spans —
   so [end_span] accepts any currently-open id.  Only ids that are not
   open (double close, or never opened) count as mis-nesting. *)

let[@inline] begin_span ?task t ~component name =
  if not t.enabled then 0
  else begin
    let id = t.next_span_id in
    t.next_span_id <- id + 1;
    t.open_spans <-
      {
        os_id = id;
        os_key = { component; name; task };
        os_start = Cycles.now t.clock;
        os_depth = List.length t.open_spans;
      }
      :: t.open_spans;
    id
  end

let record_span t os ~ended =
  if Queue.length t.spans >= t.span_capacity then begin
    ignore (Queue.pop t.spans);
    t.spans_dropped <- t.spans_dropped + 1
  end;
  Queue.push
    {
      span_key = os.os_key;
      start_cycle = os.os_start;
      duration = ended - os.os_start;
      depth = os.os_depth;
    }
    t.spans;
  t.spans_recorded <- t.spans_recorded + 1;
  (* Auto-maintained duration histogram per span key (free of the
     per-event charge: the span charge below covers all bookkeeping). *)
  add_sample t os.os_key (ended - os.os_start)

let end_span t id =
  if t.enabled && id <> 0 then begin
    (* Read the end cycle before charging so the span's own bookkeeping
       cost lands in the enclosing region, not inside the span. *)
    let ended = Cycles.now t.clock in
    match List.partition (fun os -> os.os_id = id) t.open_spans with
    | [ os ], rest ->
        t.open_spans <- rest;
        record_span t os ~ended;
        Cycles.charge t.clock t.per_span_cost
    | _ -> t.mis_nested <- t.mis_nested + 1
  end

let with_span ?task t ~component name f =
  let id = begin_span ?task t ~component name in
  Fun.protect ~finally:(fun () -> end_span t id) f

(* Read-side accessors are host-side analysis: they never charge. *)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let counters t = sorted_bindings t.counters (fun r -> !r)
let gauges t = sorted_bindings t.gauges (fun r -> !r)

let counter ?task t ~component name =
  match Hashtbl.find_opt t.counters { component; name; task } with
  | Some r -> !r
  | None -> 0

let gauge ?task t ~component name =
  match Hashtbl.find_opt t.gauges { component; name; task } with
  | Some r -> !r
  | None -> 0

let snapshot_histogram h =
  let nonzero = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then nonzero := (i, h.buckets.(i)) :: !nonzero
  done;
  {
    count = h.h_count;
    sum = h.h_sum;
    min_value = (if h.h_count = 0 then 0 else h.h_min);
    max_value = (if h.h_count = 0 then 0 else h.h_max);
    nonzero_buckets = !nonzero;
  }

let histograms t = sorted_bindings t.histograms snapshot_histogram

let histogram ?task t ~component name =
  Option.map snapshot_histogram
    (Hashtbl.find_opt t.histograms { component; name; task })

let spans t = List.of_seq (Queue.to_seq t.spans)
let open_span_count t = List.length t.open_spans
let events_recorded t = t.events_recorded
let spans_recorded t = t.spans_recorded
let spans_dropped t = t.spans_dropped
let mis_nested t = t.mis_nested

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms;
  t.open_spans <- [];
  Queue.clear t.spans;
  t.events_recorded <- 0;
  t.spans_recorded <- 0;
  t.spans_dropped <- 0;
  t.mis_nested <- 0
