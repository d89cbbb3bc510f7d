(** Tasklang → ISA code generation.

    A straightforward stack-machine lowering: expressions evaluate into
    r0 (spilling to the task stack for binops), variables live as data
    words addressed through relocations, control flow uses PC-relative
    branches.  Registers used: r0/r1 (expression scratch), r4 (address
    temporary), r12 (inbox pointer, provided by the trusted software for
    secure tasks). *)

open Tytan_telf

val to_telf : ?secure:bool -> ?stack_size:int -> Ast.program -> Telf.t
(** Convenience: lower and package ([secure] defaults to true,
    [stack_size] to 512). *)

type compiled = {
  telf : Telf.t;
  loop_bounds : (int * int) list;
      (** loop-header byte offset → max executions of the header per
          entry to the loop; emitted for [Repeat] and for shift loops
          with a literal amount.  This is the side-channel from the
          compiler to the tycheck verifier — without it, any cyclic
          code has unbounded WCET. *)
}

val compile : ?secure:bool -> ?stack_size:int -> Ast.program -> compiled
(** Like {!to_telf}, but keeps the loop-bound annotations.

    The produced TELF carries a {!Manifest}: every receiver named by a
    [Send] becomes a declared peer, and each [secrets] global becomes a
    secret data range, so the flow verifier knows what the program is
    allowed to do.  Programs with no sends and no secrets get no
    manifest (a plain v1 image). *)

val check :
  ?secure:bool ->
  ?stack_size:int ->
  ?config:Tytan_analysis.Tycheck.config ->
  Ast.program ->
  Tytan_analysis.Tycheck.report
(** Compile and statically verify in one step: the program's own loop
    bounds are merged into [config] (default {!Tytan_analysis.Tycheck.default_config})
    and the r12-inbox convention follows [secure].  Surfaces the
    verifier's diagnostics for code this compiler just produced —
    the compile-then-vet path a deployment pipeline would use. *)
