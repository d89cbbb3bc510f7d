open Tytan_machine
open Tytan_telf

(* The SWI numbers and payload convention mirror Ipc (swi_send, swi_shm,
   message_words); they are plain numbers here so the analysis library
   stays independent of the kernel, like the inbox size in Tycheck. *)
let swi_send = 3
let swi_shm = 12
let payload_regs = 8

type config = {
  secret_windows : (int * int * string) list;
  declass_windows : (int * int) list;
}

(* The platform memory map's secret producers: the protected platform
   key Kp at 0x200 (readable only by Remote Attest; a task load from
   there is already a memory violation, flow catches the copy even if a
   window were granted), and the attestation-key derivation register
   block inside the MMIO window, where Ka-derived material is read back.
   The declass window is the MAC engine's input block: writing secret
   material there is the legitimate path out. *)
let default_config =
  {
    secret_windows =
      [
        (0x0000_0200, 20, "platform key Kp");
        (0xF000_2000, 16, "attestation-key derivation window");
      ];
    declass_windows = [ (0xF000_3000, 64) ];
  }

let key_window_base = 0xF000_2000

(* Manifest declass windows are attacker-controlled: honoured blindly, a
   hostile image could declare a "declass" window over the key-derivation
   block (or any exfiltration address) and launder every secret through
   it.  Only windows wholly inside a platform crypto region are granted;
   the rest never reach the taint pass and are refused outright. *)
let declass_window_allowed config (lo, size) =
  List.exists
    (fun (base, bsize) -> lo >= base && lo + size <= base + bsize)
    config.declass_windows

let split_manifest_declass config (manifest : Manifest.t option) =
  match manifest with
  | None -> ([], [])
  | Some m ->
      List.partition (declass_window_allowed config) m.Manifest.declass_windows

let manifest_findings config (manifest : Manifest.t option) =
  let _, rejected = split_manifest_declass config manifest in
  List.map
    (fun (lo, size) ->
      Finding.v Finding.Flow Finding.Violation
        (Printf.sprintf
           "manifest declass window [0x%08X, +%d] lies outside the platform \
            crypto regions"
           lo size))
    rejected

let sources_of config (manifest : Manifest.t option) =
  let manifest_ranges =
    match manifest with
    | None -> []
    | Some m ->
        List.map
          (fun (off, len) -> (off, len, "manifest secret range"))
          m.Manifest.secret_ranges
  in
  let granted_declass, _ = split_manifest_declass config manifest in
  {
    Taint.secret_windows = config.secret_windows;
    secret_ranges = manifest_ranges;
    declass_windows = config.declass_windows @ granted_declass;
  }

let pp_peer lo hi = Printf.sprintf "%08X:%08X" lo hi

let taint_findings sources (df : Dataflow.t) (tr : Taint.result) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  if not tr.Taint.converged then
    add
      (Finding.v Finding.Flow Finding.Unknown
         "memory taint did not reach a fixpoint within the iteration budget");
  let declass = sources.Taint.declass_windows in
  let in_declass lo hi =
    List.exists (fun (base, size) -> lo >= base && hi < base + size) declass
  in
  let overlaps_declass lo hi =
    List.exists (fun (base, size) -> hi >= base && lo < base + size) declass
  in
  Array.iteri
    (fun i taint_state ->
      match (taint_state, df.Dataflow.states.(i)) with
      | Some taints, Some abs -> (
          let offset = Cfg.offset i in
          match df.Dataflow.cfg.Cfg.instrs.(i) with
          | Some (Isa.Swi n) when n = swi_send ->
              (* The kernel copies r0..r7 into the receiver's inbox:
                 every payload register is a sink. *)
              for r = 0 to payload_regs - 1 do
                match taints.(r) with
                | Taint.Clean -> ()
                | Taint.Secret src ->
                    add
                      (Finding.v ~offset Finding.Flow Finding.Violation
                         (Printf.sprintf
                            "IPC payload r%d carries secret from %s into the \
                             send at +0x%04X"
                            r src offset))
                | Taint.Maybe src ->
                    add
                      (Finding.v ~offset Finding.Flow Finding.Unknown
                         (Printf.sprintf
                            "IPC payload r%d may carry secret material (%s)" r
                            src))
              done
          | Some (Isa.Stw (rs, imm, rv)) | Some (Isa.Stb (rs, imm, rv)) -> (
              let bytes =
                match df.Dataflow.cfg.Cfg.instrs.(i) with
                | Some (Isa.Stw _) -> 4
                | _ -> 1
              in
              match taints.(rv) with
              | Taint.Clean -> ()
              | taint -> (
                  let src =
                    match taint with
                    | Taint.Secret s | Taint.Maybe s -> s
                    | Taint.Clean -> assert false
                  in
                  match Absval.add_word abs.(rs) imm with
                  | Absval.Bot -> ()
                  | Absval.Rel _ ->
                      (* The task's own allocation: propagation, handled
                         by the taint pass's memory ranges. *)
                      ()
                  | Absval.Abs (lo, hi) ->
                      let hi = hi + bytes - 1 in
                      if in_declass lo hi then ()
                      else if overlaps_declass lo hi then
                        add
                          (Finding.v ~offset Finding.Flow Finding.Unknown
                             (Printf.sprintf
                                "store of secret material (%s) straddles the \
                                 crypto window edge"
                                src))
                      else
                        add
                          (Finding.v ~offset Finding.Flow
                             (match taint with
                             | Taint.Secret _ -> Finding.Violation
                             | _ -> Finding.Unknown)
                             (Printf.sprintf
                                "store at absolute [0x%08X, 0x%08X] leaks %s \
                                 outside the crypto windows"
                                lo hi src))
                  | Absval.Top ->
                      add
                        (Finding.v ~offset Finding.Flow Finding.Unknown
                           (Printf.sprintf
                              "store of secret material (%s) through an \
                               unresolved pointer may reach shared memory"
                              src))))
          | _ -> ())
      | _ -> ())
    tr.Taint.taints;
  List.rev !findings

let topology_findings (telf : Telf.t) (df : Dataflow.t) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let manifest = telf.manifest in
  Array.iteri
    (fun i state ->
      match state with
      | None -> ()
      | Some (abs : Absval.t array) -> (
          match df.Dataflow.cfg.Cfg.instrs.(i) with
          | Some (Isa.Swi n) when n = swi_send || n = swi_shm -> (
              let offset = Cfg.offset i in
              let what =
                if n = swi_send then "IPC send" else "shared-memory request"
              in
              match (abs.(8), abs.(9)) with
              | Absval.Abs (llo, lhi), Absval.Abs (hlo, hhi)
                when llo = lhi && hlo = hhi -> (
                  match manifest with
                  | None ->
                      add
                        (Finding.v ~offset Finding.Topology Finding.Violation
                           (Printf.sprintf
                              "%s to peer %s but the binary declares no \
                               topology manifest"
                              what (pp_peer llo hlo)))
                  | Some m ->
                      if not (Manifest.mem_peer m ~lo:llo ~hi:hlo) then
                        add
                          (Finding.v ~offset Finding.Topology
                             Finding.Violation
                             (Printf.sprintf
                                "%s addresses peer %s outside the declared \
                                 topology (%d declared)"
                                what (pp_peer llo hlo)
                                (List.length m.Manifest.peers))))
              | _ ->
                  add
                    (Finding.v ~offset Finding.Topology Finding.Unknown
                       (Printf.sprintf
                          "%s receiver identity could not be statically \
                           resolved"
                          what)))
          | _ -> ()))
    df.Dataflow.states;
  List.rev !findings

let run ~config ~stack_region (telf : Telf.t) (df : Dataflow.t) =
  let sources = sources_of config telf.manifest in
  let tr = Taint.run sources ~stack_region df in
  manifest_findings config telf.manifest
  @ taint_findings sources df tr
  @ topology_findings telf df

(* Standalone entry point for fuzzing and ad-hoc use: mirrors Tycheck's
   dataflow setup (secure-task conventions, default inbox) and, like
   Tycheck.check, never raises — hostile input lands in findings. *)
let check ?(config = default_config) (telf : Telf.t) =
  try
    match Cfg.of_telf telf with
    | Error msg -> [ Finding.v Finding.Format Finding.Violation msg ]
    | Ok cfg when cfg.Cfg.entry >= Cfg.instr_count cfg ->
        [
          Finding.v Finding.Format Finding.Violation
            "entry point lies beyond the decoded text";
        ]
    | Ok cfg ->
        let image_size = Bytes.length telf.image in
        let inbox_bytes = 64 in
        let footprint =
          image_size + telf.bss_size + inbox_bytes + telf.stack_size
        in
        let reloc_imms = Hashtbl.create 16 in
        Array.iter (fun off -> Hashtbl.replace reloc_imms off ()) telf.relocations;
        let relocated i =
          Hashtbl.mem reloc_imms (Cfg.offset i + Isa.imm_field_offset)
        in
        let init = Array.make Dataflow.reg_count Absval.top in
        init.(12) <- Absval.rel_const (image_size + telf.bss_size);
        init.(15) <- Absval.rel_const footprint;
        let fallback = Cfg.indirect_code_targets telf in
        let stack_region = (footprint - telf.stack_size, footprint) in
        let df = Dataflow.run ~init ~relocated ~fallback ~stack_region cfg in
        List.stable_sort Finding.compare (run ~config ~stack_region telf df)
  with exn ->
    [
      Finding.v Finding.Flow Finding.Violation
        ("flow analysis failed: " ^ Printexc.to_string exn);
    ]
