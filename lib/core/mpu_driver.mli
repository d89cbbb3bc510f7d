(** The trusted EA-MPU driver.

    Dynamic task handling requires the EA-MPU to be dynamically
    configurable; only this driver (a trusted component with OS-level
    privilege) writes the unit's slots.  Installing a rule performs the
    paper's three phases, each charged its Table 6 cost:

    + find a free slot — cost grows with the slot's position;
    + check the candidate against every installed rule (protected
      executable regions must not overlap);
    + write the rule to the configuration registers. *)

open Tytan_machine
open Tytan_eampu

type t

val create : Eampu.t -> Cycles.t -> code_eip:Word.t -> t

val eampu : t -> Eampu.t
val code_eip : t -> Word.t

val install_rule : t -> Eampu.rule -> (int, string) result
(** Find-check-write with cycle charges; returns the slot used. *)

val install_static : t -> Eampu.rule -> (int, string) result
(** Boot-time installation: same checks, no cycle charge (secure boot
    happens before the real-time workload starts). *)

val remove_slot : t -> int -> unit
val remove_slots : t -> int list -> unit
