(** Memory-access classification and faults.

    Every fetch, load and store on the simulated core is classified by an
    {!kind} and routed through a protection hook (the EA-MPU plugs in
    there).  A denied access raises {!Violation}, which the CPU turns into
    a machine fault. *)

type kind =
  | Read
  | Write
  | Execute

type violation = {
  eip : Word.t;  (** instruction pointer of the code performing the access *)
  addr : Word.t;  (** target address *)
  size : int;  (** access width in bytes *)
  kind : kind;
  reason : string;  (** human-readable denial reason *)
}

exception Violation of violation

val violation : eip:Word.t -> addr:Word.t -> size:int -> kind:kind -> string -> 'a
(** Raise {!Violation} with the given description. *)

val pp_violation : Format.formatter -> violation -> unit
