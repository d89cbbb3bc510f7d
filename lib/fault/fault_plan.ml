open Tytan_machine

module Prng = struct
  type t = { mutable state : int }

  let create seed = { state = seed land 0x3FFF_FFFF }

  (* The simulator's standard LCG (Numerical Recipes constants). *)
  let next t =
    t.state <- (t.state * 1664525) + 1013904223 land 0x3FFF_FFFF;
    t.state land 0x3FFF_FFFF

  let int t bound =
    if bound <= 0 then invalid_arg "Fault_plan.Prng.int: bound must be positive";
    next t mod bound

  let word t = next t
end

type kind =
  | Bit_flip of {
      addr : Word.t;
      bit : int;
    }
  | Write_glitch of {
      count : int;
      bit : int;
    }
  | Mmio_glitch of {
      device : string;
      count : int;
    }
  | Irq_storm of {
      irq : int;
      count : int;
    }
  | Task_kill of { name : string }
  | Task_hang of { name : string }

type event = {
  at_tick : int;
  kind : kind;
}

type t = {
  seed : int;
  events : event list;
}

let make ~seed events =
  List.iter
    (fun e ->
      if e.at_tick < 0 then invalid_arg "Fault_plan.make: negative tick")
    events;
  {
    seed;
    events = List.stable_sort (fun a b -> compare a.at_tick b.at_tick) events;
  }

let random_bit_flips rng ~count ~base ~size ~first_tick ~last_tick =
  if size <= 0 then invalid_arg "Fault_plan.random_bit_flips: empty region";
  if last_tick < first_tick then
    invalid_arg "Fault_plan.random_bit_flips: empty tick window";
  List.init count (fun _ ->
      let at_tick = first_tick + Prng.int rng (last_tick - first_tick + 1) in
      let addr = base + Prng.int rng size in
      let bit = Prng.int rng 8 in
      { at_tick; kind = Bit_flip { addr; bit } })

let describe = function
  | Bit_flip { addr; bit } ->
      Printf.sprintf "flip bit %d of byte 0x%05x" bit addr
  | Write_glitch { count; bit } ->
      Printf.sprintf "next %d RAM writes land with bit %d flipped" count bit
  | Mmio_glitch { device; count } ->
      Printf.sprintf "next %d MMIO reads of %s return garbage" count device
  | Irq_storm { irq; count } ->
      Printf.sprintf "%d spurious interrupts on line %d" count irq
  | Task_kill { name } -> Printf.sprintf "kill task %s" name
  | Task_hang { name } -> Printf.sprintf "hang task %s" name
