(** Applying and reverting relocation.

    Loading patches each relocated 32-bit field by adding the load base
    ({!apply}); the RTM temporarily subtracts it again ({!revert}) so that
    the measured bytes are those of the position-independent binary —
    TyTAN's trick for getting location-independent task identities.

    These operate on raw loaded bytes, so the RTM can revert a {e copy} of
    task memory without disturbing the running image. *)

open Tytan_machine

val apply : base:Word.t -> image:bytes -> relocations:int array -> unit
(** Add [base] to every relocated field, in place. *)

val revert : base:Word.t -> image:bytes -> relocations:int array -> unit
(** Subtract [base] from every relocated field, in place.
    [revert ~base] ∘ [apply ~base] is the identity. *)
