(** Disassembler for debugging and inspection.

    Renders instruction listings from raw bytes, memory, or a loaded
    region — used by the CLI's [disasm] command and by tests asserting on
    generated code. *)

type line = {
  addr : Word.t;
  instr : Isa.t option;  (** [None] when the bytes decode to no opcode *)
  raw : bytes;
}

val of_bytes : ?base:Word.t -> bytes -> line list
(** Decode consecutive {!Isa.width}-byte slots.  Bytes left over after
    the last full slot are reported as a final line with [instr = None]
    and the remainder in [raw] — never silently dropped. *)

val pp_line : Format.formatter -> line -> unit
(** ["0001A0  swi 3"], or the raw bytes in hex when undecodable. *)

val pp : Format.formatter -> line list -> unit

val annotate : symbols:(string * int) list -> base:Word.t -> line list ->
  (string option * line) list
(** Attach label names (offsets relative to [base]) to the lines they
    start. *)
