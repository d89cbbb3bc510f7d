(** Cycle-accurate telemetry: metrics registry and span timelines.

    The registry holds typed metrics — counters, gauges and log-bucketed
    cycle histograms — keyed by component, metric name and an optional
    owning-task label, plus a tracker of nested timed {e spans} over the
    simulated {!Tytan_machine.Cycles} clock.

    {b Zero-cost-disabled contract.}  A disabled registry (the default)
    performs no allocation, records nothing, and charges exactly zero
    cycles: every write-side entry point starts with a single [enabled]
    field test, the same discipline as the CPU branch hook.  When enabled,
    every recorded metric event charges [per_event_cost] and every closed
    span charges [per_span_cost] on the registry's clock — observation is
    part of the machine and has an honest, modelled price (the platform
    wires these from [Cost_model]).  Read-side accessors are host-side
    analysis and never charge. *)

open Tytan_machine

type key = {
  component : string;  (** emitting subsystem, e.g. ["kernel"], ["ipc"] *)
  name : string;
  task : string option;  (** owning task, when attributable *)
}

val key : ?task:string -> component:string -> string -> key
val key_to_string : key -> string

type t

val create :
  ?span_capacity:int -> ?per_event_cost:int -> ?per_span_cost:int -> Cycles.t -> t
(** Disabled by default.  Keeps at most [span_capacity] (default 4096)
    most recent completed spans; both costs default to 0. *)

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool
val clock : t -> Cycles.t

val set_costs : t -> per_event:int -> per_span:int -> unit
val per_event_cost : t -> int
val per_span_cost : t -> int

(** {2 Metrics} *)

val incr : ?task:string -> t -> component:string -> string -> unit
val add : ?task:string -> t -> component:string -> string -> int -> unit
val set_gauge : ?task:string -> t -> component:string -> string -> int -> unit

val observe : ?task:string -> t -> component:string -> string -> int -> unit
(** Record one histogram observation.  Buckets are powers of two: bucket
    0 holds values [<= 0], bucket [i >= 1] holds [[2^(i-1), 2^i)], and
    the last bucket (index 62) absorbs everything up to [max_int]. *)

val bucket_count : int
val bucket_index : int -> int
val bucket_lower : int -> int
(** Smallest value falling in bucket [i]. *)

val bucket_upper : int -> int
(** Largest value falling in bucket [i]. *)

(** {2 Spans} *)

val begin_span : ?task:string -> t -> component:string -> string -> int
(** Open a timed region; returns an opaque span id, or [0] when the
    registry is disabled ([0] is always a valid no-op [end_span]
    argument). *)

val end_span : t -> int -> unit
(** Close an open span, recording its duration and charging
    [per_span_cost].  The end cycle is read {e before} the charge, so a
    span's own bookkeeping cost lands in the enclosing region.  Spans may
    close out of order — interruptible jobs legitimately overlap kernel
    service spans — but closing an id that is not open (double close or
    never opened) is mis-nesting: counted in {!mis_nested} and otherwise
    ignored. *)

val with_span : ?task:string -> t -> component:string -> string -> (unit -> 'a) -> 'a

(** {2 Read side (host-side analysis; never charges)} *)

type histogram_snapshot = {
  count : int;
  sum : int;
  min_value : int;
  max_value : int;
  nonzero_buckets : (int * int) list;  (** (bucket index, count), ascending *)
}

type span = {
  span_key : key;
  start_cycle : int;
  duration : int;
  depth : int;  (** nesting depth at open time *)
}

val counters : t -> (key * int) list
(** Sorted by key — deterministic output for reports and golden tests. *)

val gauges : t -> (key * int) list
val histograms : t -> (key * histogram_snapshot) list
val counter : ?task:string -> t -> component:string -> string -> int
(** 0 when absent. *)

val gauge : ?task:string -> t -> component:string -> string -> int
val histogram : ?task:string -> t -> component:string -> string -> histogram_snapshot option

val spans : t -> span list
(** Completed spans, oldest first.  Every closed span also feeds a
    duration histogram under its own key. *)

val open_span_count : t -> int
val events_recorded : t -> int
val spans_recorded : t -> int
val spans_dropped : t -> int
val mis_nested : t -> int
val clear : t -> unit
