open Tytan_machine
open Tytan_eampu

type t = {
  eampu : Eampu.t;
  clock : Cycles.t;
  code_eip : Word.t;
}

let create eampu clock ~code_eip = { eampu; clock; code_eip }
let eampu t = t.eampu
let code_eip t = t.code_eip

let try_install t rule =
  match Eampu.first_free_slot t.eampu with
  | None -> (Error "EA-MPU: no free slot", 0)
  | Some slot -> (
      match Eampu.conflicts t.eampu rule with
      | (_, _) :: _ -> (Error "EA-MPU: rule conflicts with installed rule", slot)
      | [] ->
          Eampu.set_slot t.eampu slot (Some rule);
          (Ok slot, slot))

let install_rule t rule =
  let result, slot = try_install t rule in
  (* Table 6 cost structure: probing slots 0..slot, then the policy scan
     over all slots, then the register write (on success). *)
  Cycles.charge t.clock
    (Cost_model.eampu_find_slot_base + (slot * Cost_model.eampu_find_slot_step));
  Cycles.charge t.clock Cost_model.eampu_policy_check;
  (match result with
  | Ok _ -> Cycles.charge t.clock Cost_model.eampu_write_rule
  | Error _ -> ());
  result

let install_static t rule =
  let result, _slot = try_install t rule in
  result

let remove_slot t slot = Eampu.clear_slot t.eampu slot
let remove_slots t slots = List.iter (remove_slot t) slots
