type t = {
  gprs : Word.t array;
  mutable eip : Word.t;
  mutable eflags : Word.t;
}

let gpr_count = 16
let sp = 15
let lr = 14
let reason = 13

let create () = { gprs = Array.make gpr_count 0; eip = 0; eflags = 0 }
let copy t = { gprs = Array.copy t.gprs; eip = t.eip; eflags = t.eflags }

let get t i =
  assert (i >= 0 && i < gpr_count);
  t.gprs.(i)

let set t i v =
  assert (i >= 0 && i < gpr_count);
  t.gprs.(i) <- Word.of_int v

let eip t = t.eip
let set_eip t v = t.eip <- Word.of_int v
let eflags t = t.eflags
let set_eflags t v = t.eflags <- Word.of_int v

let bit_zero = 1
let bit_negative = 2
let bit_carry = 4
let bit_interrupts = 8

let test t bit = t.eflags land bit <> 0

let assign t bit on =
  t.eflags <- (if on then t.eflags lor bit else t.eflags land lnot bit)

let zero_flag t = test t bit_zero
let negative_flag t = test t bit_negative
let interrupts_enabled t = test t bit_interrupts
let set_zero t on = assign t bit_zero on
let set_negative t on = assign t bit_negative on
let set_carry t on = assign t bit_carry on
let set_interrupts t on = assign t bit_interrupts on
let wipe_gprs t = Array.fill t.gprs 0 gpr_count 0
let all_gprs t = Array.copy t.gprs

let restore_gprs t saved =
  assert (Array.length saved = gpr_count);
  Array.blit saved 0 t.gprs 0 gpr_count

let pp ppf t =
  Format.fprintf ppf "@[<v>eip=%a eflags=%a" Word.pp t.eip Word.pp t.eflags;
  Array.iteri
    (fun i v -> Format.fprintf ppf "@ r%-2d=%a" i Word.pp v)
    t.gprs;
  Format.fprintf ppf "@]"
