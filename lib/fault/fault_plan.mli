(** Deterministic fault plans.

    A plan is a schedule of fault events pinned to kernel ticks, plus the
    seed of the PRNG that generated (and parameterises) it.  The same
    seed always yields the same plan, and running the same plan against
    the same scenario yields the same trace — fault campaigns are
    reproducible bit for bit.

    A plan covers the two layers of the chip {!Injector} acts on:

    - {e machine}: RAM bit flips, glitched values on RAM writes,
      transient MMIO read garbage, spurious interrupt storms;
    - {e tasks}: killing or wedging a task at a chosen tick.

    Faults of other layers are named where they are applied: link
    corruption, duplication, reordering and loss in
    {!Tytan_netsim.Link}; the fleet engines' device faults in
    [Tytan_serve.Gateway.fault], [Tytan_ota.Rollout.fault] and the
    swarm.  They share only {!Prng}. *)

open Tytan_machine

(** The seeded linear-congruential PRNG every fault component shares —
    deterministic, portable, and good enough for fault lotteries. *)
module Prng : sig
  type t

  val create : int -> t
  val int : t -> int -> int
  (** Uniform draw in [\[0, bound)].  @raise Invalid_argument if
      [bound <= 0]. *)

  val word : t -> Word.t
  (** A full 30-bit draw (garbage values for glitched reads). *)
end

type kind =
  | Bit_flip of { addr : Word.t; bit : int }
      (** Flip one bit of one RAM byte — a single-event upset. *)
  | Write_glitch of { count : int; bit : int }
      (** The next [count] RAM byte-writes land with [bit] flipped
          (a glitched data bus), via the {!Memory} write-fault hook. *)
  | Mmio_glitch of { device : string; count : int }
      (** The named device's next [count] MMIO reads return garbage
          instead of the device's value. *)
  | Irq_storm of { irq : int; count : int }
      (** Assert a (typically unbound) IRQ line [count] times in a row —
          spurious interrupts that cost context switches. *)
  | Task_kill of { name : string }  (** Forcibly terminate the task. *)
  | Task_hang of { name : string }
      (** Suspend the task so it stops making progress — the stimulus a
          watchdog exists to catch. *)

type event = {
  at_tick : int;
  kind : kind;
}

type t = {
  seed : int;
  events : event list;  (** sorted by [at_tick], stable *)
}

val make : seed:int -> event list -> t
(** Sort the events by tick (stable) and attach the seed.
    @raise Invalid_argument on a negative tick. *)

val random_bit_flips :
  Prng.t ->
  count:int ->
  base:Word.t ->
  size:int ->
  first_tick:int ->
  last_tick:int ->
  event list
(** [count] single-bit flips at PRNG-chosen addresses within
    [\[base, base+size)] and PRNG-chosen ticks within
    [\[first_tick, last_tick\]]. *)

val describe : kind -> string
(** One-line human description for trace events. *)
