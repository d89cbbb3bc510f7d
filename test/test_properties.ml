(* Property-based tests (qcheck) over the core data structures and
   invariants: word arithmetic, SHA-1/HMAC structure, TELF and ISA
   round-trips, relocation, the EA-MPU access lattice, the heap and the
   sealed-storage cipher. *)

open Tytan_machine
open Tytan_eampu
open Tytan_telf
module Crypto = Tytan_crypto

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Generators ----------------------------------------------------------- *)

let word_gen = QCheck.Gen.(map (fun n -> n land Word.max_value) (int_bound max_int))
let word_arb = QCheck.make ~print:(Printf.sprintf "0x%08X") word_gen

let bytes_arb =
  QCheck.map ~rev:Bytes.to_string Bytes.of_string QCheck.string

let small_bytes_arb =
  QCheck.map ~rev:Bytes.to_string Bytes.of_string QCheck.small_string

(* --- Word ----------------------------------------------------------------- *)

let word_props =
  [
    QCheck.Test.make ~name:"add is associative mod 2^32" ~count:500
      (QCheck.triple word_arb word_arb word_arb) (fun (a, b, c) ->
        Word.add (Word.add a b) c = Word.add a (Word.add b c));
    QCheck.Test.make ~name:"sub inverts add" ~count:500
      (QCheck.pair word_arb word_arb) (fun (a, b) ->
        Word.sub (Word.add a b) b = a);
    QCheck.Test.make ~name:"to_signed/of_signed round trip" ~count:500
      word_arb (fun w -> Word.of_signed (Word.to_signed w) = w);
    QCheck.Test.make ~name:"lognot is an involution" ~count:500 word_arb
      (fun w -> Word.lognot (Word.lognot w) = w);
    QCheck.Test.make ~name:"values stay within 32 bits" ~count:500
      (QCheck.pair word_arb word_arb) (fun (a, b) ->
        let all_ok v = v >= 0 && v <= Word.max_value in
        all_ok (Word.add a b) && all_ok (Word.mul a b)
        && all_ok (Word.sub a b));
  ]

(* --- Crypto ---------------------------------------------------------------- *)

let crypto_props =
  [
    QCheck.Test.make ~name:"sha1 deterministic" ~count:100 bytes_arb (fun b ->
        Crypto.Sha1.digest b = Crypto.Sha1.digest (Bytes.copy b));
    QCheck.Test.make ~name:"sha1 digest always 20 bytes" ~count:100 bytes_arb
      (fun b -> Bytes.length (Crypto.Sha1.digest b) = 20);
    QCheck.Test.make ~name:"sha1 streaming split-invariant" ~count:100
      (QCheck.pair bytes_arb QCheck.small_nat) (fun (b, k) ->
        let ctx = Crypto.Sha1.init () in
        let cut = if Bytes.length b = 0 then 0 else k mod (Bytes.length b + 1) in
        Crypto.Sha1.feed_sub ctx b ~pos:0 ~len:cut;
        Crypto.Sha1.feed_sub ctx b ~pos:cut ~len:(Bytes.length b - cut);
        Crypto.Sha1.finalize ctx = Crypto.Sha1.digest b);
    QCheck.Test.make ~name:"hmac verify accepts own tag" ~count:100
      (QCheck.pair small_bytes_arb bytes_arb) (fun (key, msg) ->
        Crypto.Hmac.verify ~key msg ~tag:(Crypto.Hmac.mac ~key msg));
    QCheck.Test.make ~name:"seal/open round trip for any payload" ~count:100
      (QCheck.pair small_bytes_arb bytes_arb) (fun (nonce, payload) ->
        let key = Bytes.make 20 'k' in
        Crypto.Keystream.open_sealed ~key
          (Crypto.Keystream.seal ~key ~nonce payload)
        = Some payload);
    QCheck.Test.make ~name:"sealed encode/decode round trip" ~count:100
      (QCheck.pair small_bytes_arb bytes_arb) (fun (nonce, payload) ->
        let key = Bytes.make 20 'k' in
        let sealed = Crypto.Keystream.seal ~key ~nonce payload in
        match Crypto.Keystream.decode (Crypto.Keystream.encode sealed) with
        | Some s -> Crypto.Keystream.open_sealed ~key s = Some payload
        | None -> false);
    QCheck.Test.make ~name:"constant-time equal agrees with (=)" ~count:200
      (QCheck.pair small_bytes_arb small_bytes_arb) (fun (a, b) ->
        Crypto.Constant_time.equal a b = (a = b));
  ]

(* --- ISA -------------------------------------------------------------------- *)

let reg_gen = QCheck.Gen.int_bound 15

(* Every constructor of the ISA, so the round-trip properties cover the
   whole opcode space. *)
let instr_gen =
  let open QCheck.Gen in
  let open Isa in
  let shift_gen = int_bound 31 in
  oneof
    [
      return Nop;
      map2 (fun r w -> Movi (r, w)) reg_gen word_gen;
      map2 (fun a b -> Mov (a, b)) reg_gen reg_gen;
      map3 (fun a b c -> Add (a, b, c)) reg_gen reg_gen reg_gen;
      map3 (fun a b w -> Addi (a, b, w)) reg_gen reg_gen word_gen;
      map3 (fun a b c -> Sub (a, b, c)) reg_gen reg_gen reg_gen;
      map3 (fun a b c -> Mul (a, b, c)) reg_gen reg_gen reg_gen;
      map3 (fun a b c -> And (a, b, c)) reg_gen reg_gen reg_gen;
      map3 (fun a b c -> Or (a, b, c)) reg_gen reg_gen reg_gen;
      map3 (fun a b c -> Xor (a, b, c)) reg_gen reg_gen reg_gen;
      map3 (fun a b n -> Shl (a, b, n)) reg_gen reg_gen shift_gen;
      map3 (fun a b n -> Shr (a, b, n)) reg_gen reg_gen shift_gen;
      map2 (fun a b -> Cmp (a, b)) reg_gen reg_gen;
      map2 (fun r w -> Cmpi (r, w)) reg_gen word_gen;
      map3 (fun a b w -> Ldw (a, b, w)) reg_gen reg_gen word_gen;
      map3 (fun a w b -> Stw (a, w, b)) reg_gen word_gen reg_gen;
      map3 (fun a b w -> Ldb (a, b, w)) reg_gen reg_gen word_gen;
      map3 (fun a w b -> Stb (a, w, b)) reg_gen word_gen reg_gen;
      map (fun w -> Jmp w) word_gen;
      map (fun w -> Jz w) word_gen;
      map (fun w -> Jnz w) word_gen;
      map (fun w -> Jlt w) word_gen;
      map (fun w -> Jge w) word_gen;
      map (fun r -> Jmpr r) reg_gen;
      map (fun w -> Call w) word_gen;
      map (fun r -> Callr r) reg_gen;
      return Ret;
      map (fun r -> Push r) reg_gen;
      map (fun r -> Pop r) reg_gen;
      map (fun n -> Swi (n land 0xF)) (int_bound 15);
      return Iret;
      return Halt;
    ]

let instr_arb = QCheck.make ~print:(Format.asprintf "%a" Isa.pp) instr_gen

let instr_list_arb =
  QCheck.make
    ~print:(fun is ->
      String.concat "; " (List.map (Format.asprintf "%a" Isa.pp) is))
    QCheck.Gen.(list_size (int_range 1 30) instr_gen)

let isa_props =
  [
    QCheck.Test.make ~name:"encode/decode round trip" ~count:500 instr_arb
      (fun i -> Isa.decode (Isa.encode i) = i);
    QCheck.Test.make ~name:"encoding is fixed width" ~count:200 instr_arb
      (fun i -> Bytes.length (Isa.encode i) = Isa.width);
    QCheck.Test.make
      ~name:"assemble / disassemble / re-assemble is a fixpoint" ~count:300
      instr_list_arb
      (fun instrs ->
        let assemble is =
          let p = Assembler.create () in
          Assembler.instrs p is;
          (Assembler.assemble p).Assembler.image
        in
        let image = assemble instrs in
        let lines = Disasm.of_bytes image in
        List.length lines = List.length instrs
        && List.for_all2
             (fun (l : Disasm.line) i -> l.Disasm.instr = Some i)
             lines instrs
        && assemble
             (List.filter_map (fun (l : Disasm.line) -> l.Disasm.instr) lines)
           = image);
    QCheck.Test.make ~name:"disassembler reports trailing partial slots"
      ~count:200
      (QCheck.pair instr_list_arb (QCheck.make (QCheck.Gen.int_range 1 7)))
      (fun (instrs, extra) ->
        let p = Assembler.create () in
        Assembler.instrs p instrs;
        let image = (Assembler.assemble p).Assembler.image in
        let ragged = Bytes.cat image (Bytes.make extra '\xEE') in
        let lines = Disasm.of_bytes ragged in
        List.length lines = List.length instrs + 1
        &&
        match List.rev lines with
        | (last : Disasm.line) :: _ ->
            last.Disasm.instr = None && Bytes.length last.Disasm.raw = extra
        | [] -> false);
  ]

(* --- TELF and relocation ---------------------------------------------------- *)

let telf_gen =
  let open QCheck.Gen in
  let* code_words = int_range 2 40 in
  let* data_words = int_range 0 10 in
  let* reloc_count = int_bound data_words in
  let* stack = int_range 128 1024 in
  let image_size = (code_words * Isa.width) + (data_words * 4) in
  let image = Bytes.make image_size '\000' in
  let* seed = int_bound 10000 in
  for i = 0 to image_size - 1 do
    Bytes.set image i (Char.chr ((seed + (i * 7)) land 0xFF))
  done;
  (* first bytes decode arbitrarily; only structure matters here *)
  let relocations =
    Array.init reloc_count (fun i -> (code_words * Isa.width) + (4 * i))
  in
  return
    (Telf.make ~entry:0 ~image ~text_size:(code_words * Isa.width)
       ~relocations ~bss_size:(data_words * 2) ~stack_size:stack ())

let telf_arb = QCheck.make ~print:(Format.asprintf "%a" Telf.pp) telf_gen

let telf_props =
  [
    QCheck.Test.make ~name:"encode/decode round trip" ~count:200 telf_arb
      (fun t ->
        match Telf.decode (Telf.encode t) with
        | Ok t' -> t' = t
        | Error _ -> false);
    QCheck.Test.make ~name:"revert ∘ apply = identity" ~count:200
      (QCheck.pair telf_arb word_arb) (fun (t, base) ->
        let image = Bytes.copy t.Telf.image in
        Relocate.apply ~base ~image ~relocations:t.relocations;
        Relocate.revert ~base ~image ~relocations:t.relocations;
        image = t.Telf.image);
    QCheck.Test.make ~name:"identity is position independent" ~count:100
      (QCheck.pair telf_arb (QCheck.pair word_arb word_arb))
      (fun (t, (b1, b2)) ->
        let measure_at base =
          let image = Bytes.copy t.Telf.image in
          Relocate.apply ~base ~image ~relocations:t.relocations;
          Relocate.revert ~base ~image ~relocations:t.relocations;
          Crypto.Sha1.digest image
        in
        measure_at b1 = measure_at b2);
    QCheck.Test.make ~name:"decode never crashes on arbitrary bytes"
      ~count:300 bytes_arb (fun b ->
        match Telf.decode b with Ok _ | Error _ -> true);
    QCheck.Test.make ~name:"footprint = image + bss + stack" ~count:200
      telf_arb (fun t ->
        Telf.memory_footprint t
        = Bytes.length t.Telf.image + t.bss_size + t.stack_size);
  ]

(* --- Flow verification over hostile input ----------------------------------- *)

(* The flow-vetting analysis is the loader's last line of defence
   against a crafted image.  Tycheck.check turns an internal exception
   into an "analysis failed" finding, so the property is not merely that
   it returns: no TELF, however malformed, and no manifest, however
   hostile, may break the six-check analysis internally. *)

let manifest_gen =
  let open QCheck.Gen in
  let entry = pair (int_bound 0xFFFF) (int_bound 0xFFFF) in
  let* peers = list_size (int_bound 4) entry in
  let* secret_ranges = list_size (int_bound 4) entry in
  let* declass_windows = list_size (int_bound 4) entry in
  return (Manifest.make ~peers ~secret_ranges ~declass_windows ())

let manifest_arb =
  QCheck.make ~print:(Format.asprintf "%a" Manifest.pp) manifest_gen

let telf2_gen =
  let open QCheck.Gen in
  let* telf = telf_gen in
  let* manifest = opt manifest_gen in
  return
    (Telf.make ?manifest ~entry:telf.Telf.entry ~image:telf.Telf.image
       ~text_size:telf.Telf.text_size ~relocations:telf.Telf.relocations
       ~bss_size:telf.Telf.bss_size ~stack_size:telf.Telf.stack_size ())

let telf2_arb = QCheck.make ~print:(Format.asprintf "%a" Telf.pp) telf2_gen

let analysis_completes telf =
  let module Tycheck = Tytan_analysis.Tycheck in
  let rep = Tycheck.check ~config:Tycheck.flow_config telf in
  List.for_all
    (fun (f : Tytan_analysis.Finding.t) ->
      not (String.starts_with ~prefix:"analysis failed" f.message))
    rep.Tycheck.findings

let flow_props =
  [
    QCheck.Test.make ~name:"manifest encode/decode round trip" ~count:200
      manifest_arb (fun m ->
        match Manifest.decode (Manifest.encode m) with
        | Ok m' -> m' = m
        | Error _ -> false);
    QCheck.Test.make ~name:"manifest decode never crashes on arbitrary bytes"
      ~count:300 bytes_arb (fun b ->
        match Manifest.decode b with Ok _ | Error _ -> true);
    QCheck.Test.make ~name:"manifest-bearing TELF round trips" ~count:200
      telf2_arb (fun t ->
        match Telf.decode (Telf.encode t) with
        | Ok t' -> t' = t
        | Error _ -> false);
    QCheck.Test.make ~name:"flow analysis never fails on generated images"
      ~count:200 telf2_arb analysis_completes;
    QCheck.Test.make
      ~name:"flow analysis never fails on decoded arbitrary bytes"
      ~count:300 bytes_arb (fun b ->
        match Telf.decode b with
        | Error _ -> true
        | Ok telf -> analysis_completes telf);
    QCheck.Test.make
      ~name:"flow analysis survives truncated / bit-flipped images"
      ~count:300
      (QCheck.pair telf2_arb (QCheck.pair QCheck.small_nat QCheck.small_nat))
      (fun (t, (cut, flip)) ->
        let b = Telf.encode t in
        let n = Bytes.length b in
        let keep = max 1 (n - (cut mod n)) in
        let b = Bytes.sub b 0 keep in
        let i = flip mod keep in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
        match Telf.decode b with
        | Error _ -> true
        | Ok telf -> analysis_completes telf);
  ]

(* --- EA-MPU access lattice --------------------------------------------------- *)

let eampu_props =
  [
    QCheck.Test.make
      ~name:"grants over protected memory only widen access" ~count:200
      (QCheck.pair (QCheck.make word_gen) (QCheck.make word_gen))
      (fun (eip_seed, addr_seed) ->
        (* For accesses to memory already under protection: an allowed
           access stays allowed after one more grant covering it.  (A
           grant over previously-open memory may legitimately *restrict*
           third parties — that is how protection is established.) *)
        let eip = 0x1000 + (eip_seed mod 0x100) in
        let addr = 0x2000 + (addr_seed mod 0xFC) in
        let base_rules e =
          Eampu.set_slot e 0
            (Some (Eampu.Exec { region = Region.make ~base:0x1000 ~size:0x100; entry = None }));
          Eampu.set_slot e 1
            (Some
               (Eampu.Grant
                  {
                    code = Region.make ~base:0x1000 ~size:0x100;
                    data = Region.make ~base:0x2000 ~size:0x100;
                    perm = Perm.r;
                  }));
          Eampu.enable e
        in
        let allowed e =
          try
            Eampu.check e ~eip ~addr ~size:4 ~kind:Access.Read;
            true
          with Access.Violation _ -> false
        in
        let e1 = Eampu.create () in
        base_rules e1;
        let e2 = Eampu.create () in
        base_rules e2;
        Eampu.set_slot e2 2
          (Some
             (Eampu.Grant
                {
                  code = Region.make ~base:0x1000 ~size:0x100;
                  data = Region.make ~base:0x2000 ~size:0x200;
                  perm = Perm.rw;
                }));
        (not (allowed e1)) || allowed e2);
    QCheck.Test.make ~name:"uncovered addresses always allowed" ~count:200
      (QCheck.make word_gen) (fun seed ->
        let e = Eampu.create () in
        Eampu.set_slot e 0
          (Some (Eampu.Exec { region = Region.make ~base:0x1000 ~size:0x100; entry = None }));
        Eampu.enable e;
        let addr = 0x10_0000 + (seed mod 0x1000) in
        try
          Eampu.check e ~eip:0 ~addr ~size:4 ~kind:Access.Write;
          true
        with Access.Violation _ -> false);
    QCheck.Test.make ~name:"conflicts is symmetric for exec rules" ~count:200
      (QCheck.pair (QCheck.make (QCheck.Gen.int_range 0 64))
         (QCheck.make (QCheck.Gen.int_range 0 64)))
      (fun (a, b) ->
        let ra = Region.make ~base:(0x1000 + (a * 16)) ~size:0x40 in
        let rb = Region.make ~base:(0x1000 + (b * 16)) ~size:0x40 in
        let with_rule r =
          let e = Eampu.create () in
          Eampu.set_slot e 0 (Some (Eampu.Exec { region = r; entry = None }));
          e
        in
        let c1 = Eampu.conflicts (with_rule ra) (Eampu.Exec { region = rb; entry = None }) in
        let c2 = Eampu.conflicts (with_rule rb) (Eampu.Exec { region = ra; entry = None }) in
        (c1 = []) = (c2 = []));
  ]

(* --- Heap --------------------------------------------------------------------- *)

let heap_ops_gen =
  QCheck.Gen.(list_size (int_range 1 40) (int_range 1 400))

let heap_props =
  [
    QCheck.Test.make ~name:"alloc'd blocks never overlap" ~count:100
      (QCheck.make heap_ops_gen) (fun sizes ->
        let h = Tytan_core.Heap.create ~base:0x1000 ~size:0x4000 in
        let blocks =
          List.filter_map
            (fun size ->
              Option.map (fun base -> (base, size)) (Tytan_core.Heap.alloc h ~size))
            sizes
        in
        let disjoint (b1, s1) (b2, s2) = b1 + s1 <= b2 || b2 + s2 <= b1 in
        let rec pairwise = function
          | [] -> true
          | x :: rest -> List.for_all (disjoint x) rest && pairwise rest
        in
        pairwise blocks);
    QCheck.Test.make ~name:"free everything restores capacity" ~count:100
      (QCheck.make heap_ops_gen) (fun sizes ->
        let h = Tytan_core.Heap.create ~base:0x1000 ~size:0x4000 in
        let full = Tytan_core.Heap.largest_free_block h in
        let bases = List.filter_map (fun size -> Tytan_core.Heap.alloc h ~size) sizes in
        List.iter (Tytan_core.Heap.free h) bases;
        Tytan_core.Heap.largest_free_block h = full);
    QCheck.Test.make ~name:"allocated + free = constant" ~count:100
      (QCheck.make heap_ops_gen) (fun sizes ->
        let h = Tytan_core.Heap.create ~base:0x1000 ~size:0x4000 in
        let total = Tytan_core.Heap.free_bytes h in
        List.iter (fun size -> ignore (Tytan_core.Heap.alloc h ~size)) sizes;
        Tytan_core.Heap.allocated_bytes h + Tytan_core.Heap.free_bytes h = total);
  ]

(* --- Task identity ------------------------------------------------------------ *)

let task_id_props =
  [
    QCheck.Test.make ~name:"words round trip" ~count:200 bytes_arb (fun b ->
        let id = Tytan_core.Task_id.of_image b in
        let lo, hi = Tytan_core.Task_id.to_words id in
        Tytan_core.Task_id.equal id (Tytan_core.Task_id.of_words ~lo ~hi));
    QCheck.Test.make ~name:"equal iff same bytes" ~count:200
      (QCheck.pair bytes_arb bytes_arb) (fun (a, b) ->
        let ia = Tytan_core.Task_id.of_image a in
        let ib = Tytan_core.Task_id.of_image b in
        Tytan_core.Task_id.equal ia ib
        = (Tytan_core.Task_id.to_bytes ia = Tytan_core.Task_id.to_bytes ib));
  ]

(* --- Scheduler invariants ------------------------------------------------------ *)

(* Random sequences of scheduler operations must preserve: a task appears
   at most once across all structures; pick always returns the
   highest-priority ready task. *)
type sched_op = Add of int | Remove of int | Delay of int | Tick | Wake

let sched_op_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Add (i mod 6)) small_nat;
      map (fun i -> Remove (i mod 6)) small_nat;
      map (fun i -> Delay (i mod 6)) small_nat;
      return Tick;
      return Wake;
    ]

let pp_op = function
  | Add i -> Printf.sprintf "Add %d" i
  | Remove i -> Printf.sprintf "Remove %d" i
  | Delay i -> Printf.sprintf "Delay %d" i
  | Tick -> "Tick"
  | Wake -> "Wake"

let sched_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 40) sched_op_gen)

let make_tcbs () =
  Array.init 6 (fun i ->
      Tytan_rtos.Tcb.make ~id:i ~name:(Printf.sprintf "t%d" i)
        ~priority:(i mod 4) ~secure:false ~region_base:0x1000
        ~region_size:0x400 ~code_base:0x1000 ~code_size:0x100 ~entry:0x1000
        ~stack_base:0x1200 ~stack_size:0x200 ~inbox_base:0)

let scheduler_props =
  [
    QCheck.Test.make ~name:"no task is ever in two structures" ~count:200
      sched_ops_arb (fun ops ->
        let open Tytan_rtos in
        let s = Scheduler.create () in
        let tcbs = make_tcbs () in
        List.iter
          (fun op ->
            match op with
            | Add i ->
                Scheduler.remove s tcbs.(i);
                Scheduler.add_ready s tcbs.(i)
            | Remove i -> Scheduler.remove s tcbs.(i)
            | Delay i ->
                Scheduler.remove s tcbs.(i);
                Scheduler.delay_until s tcbs.(i)
                  ~wake_tick:(Scheduler.tick_count s + 2)
            | Tick -> Scheduler.advance_tick s
            | Wake ->
                List.iter (Scheduler.add_ready s) (Scheduler.wake_due s))
          ops;
        let all = Scheduler.all_tasks s in
        let ids = List.map (fun t -> t.Tcb.id) all in
        let sorted = List.sort compare ids in
        let rec no_dup = function
          | a :: b :: _ when a = b -> false
          | _ :: rest -> no_dup rest
          | [] -> true
        in
        no_dup sorted);
    QCheck.Test.make ~name:"pick returns a highest-priority ready task"
      ~count:200 sched_ops_arb (fun ops ->
        let open Tytan_rtos in
        let s = Scheduler.create () in
        let tcbs = make_tcbs () in
        List.iter
          (fun op ->
            match op with
            | Add i ->
                Scheduler.remove s tcbs.(i);
                Scheduler.add_ready s tcbs.(i)
            | Remove i -> Scheduler.remove s tcbs.(i)
            | Delay i ->
                Scheduler.remove s tcbs.(i);
                Scheduler.delay_until s tcbs.(i)
                  ~wake_tick:(Scheduler.tick_count s + 2)
            | Tick -> Scheduler.advance_tick s
            | Wake ->
                List.iter (Scheduler.add_ready s) (Scheduler.wake_due s))
          ops;
        match Scheduler.pick s with
        | None -> Scheduler.ready_count s = 0
        | Some t ->
            List.for_all
              (fun other ->
                other.Tcb.state <> Tcb.Ready
                || other.Tcb.priority <= t.Tcb.priority)
              (Scheduler.all_tasks s));
  ]

(* --- Assembler / disassembler round trip ---------------------------------------- *)

let program_gen =
  QCheck.Gen.(list_size (int_range 1 30) instr_gen)

let asm_props =
  [
    QCheck.Test.make ~name:"assemble then disassemble is the identity"
      ~count:200
      (QCheck.make
         ~print:(fun is ->
           String.concat "; " (List.map (Format.asprintf "%a" Isa.pp) is))
         program_gen)
      (fun instrs ->
        let p = Assembler.create () in
        List.iter (Assembler.instr p) instrs;
        let prog = Assembler.assemble p in
        let decoded =
          List.filter_map (fun l -> l.Disasm.instr) (Disasm.of_bytes prog.image)
        in
        decoded = instrs);
  ]

(* --- Assembler/CPU round trip -------------------------------------------------- *)

let machine_props =
  [
    QCheck.Test.make ~name:"movi then stw stores the immediate" ~count:100
      (QCheck.make word_gen) (fun w ->
        let mem = Memory.create ~size:4096 in
        let clock = Cycles.create () in
        let engine = Exception_engine.create mem ~idt_base:0x100 in
        let cpu = Cpu.create mem clock engine in
        List.iteri
          (fun i instr ->
            Memory.blit_bytes mem (0x200 + (i * Isa.width)) (Isa.encode instr))
          [ Isa.Movi (0, w); Isa.Movi (1, 0x800); Isa.Stw (1, 0, 0); Isa.Halt ];
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        let rec go n = if n > 0 && Cpu.step cpu = Cpu.Running then go (n - 1) in
        go 10;
        Memory.read32 mem 0x800 = w);
    QCheck.Test.make ~name:"push/pop round-trips any word" ~count:100
      (QCheck.make word_gen) (fun w ->
        let mem = Memory.create ~size:4096 in
        let clock = Cycles.create () in
        let engine = Exception_engine.create mem ~idt_base:0x100 in
        let cpu = Cpu.create mem clock engine in
        List.iteri
          (fun i instr ->
            Memory.blit_bytes mem (0x200 + (i * Isa.width)) (Isa.encode instr))
          [ Isa.Movi (0, w); Isa.Push 0; Isa.Pop 2; Isa.Halt ];
        Regfile.set_eip (Cpu.regs cpu) 0x200;
        Regfile.set (Cpu.regs cpu) Regfile.sp 0x800;
        let rec go n = if n > 0 && Cpu.step cpu = Cpu.Running then go (n - 1) in
        go 10;
        Regfile.get (Cpu.regs cpu) 2 = w);
  ]

(* --- Merkle ---------------------------------------------------------------- *)

let merkle_case_arb =
  let print (leaves, index) =
    Printf.sprintf "%d leaves, index %d" (List.length leaves) index
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (int_range 1 40)
        (map Bytes.of_string (string_size (int_range 0 60)))
      >>= fun leaves ->
      int_bound (List.length leaves - 1) >|= fun index -> (leaves, index))

let flip_byte b pos =
  let c = Bytes.copy b in
  Bytes.set c pos (Char.chr (Char.code (Bytes.get c pos) lxor 0x40));
  c

let merkle_props =
  [
    QCheck.Test.make ~name:"any leaf's proof verifies against the root"
      ~count:200 merkle_case_arb (fun (leaves, index) ->
        let t = Crypto.Merkle.build (Array.of_list leaves) in
        let proof = Crypto.Merkle.proof t index in
        Crypto.Merkle.verify ~root:(Crypto.Merkle.root t)
          ~leaf:(List.nth leaves index) proof);
    QCheck.Test.make
      ~name:"flipping any byte of the leaf or any proof node fails" ~count:60
      merkle_case_arb (fun (leaves, index) ->
        let t = Crypto.Merkle.build (Array.of_list leaves) in
        let root = Crypto.Merkle.root t in
        let leaf = List.nth leaves index in
        let proof = Crypto.Merkle.proof t index in
        let leaf_ok = ref true in
        for pos = 0 to Bytes.length leaf - 1 do
          if Crypto.Merkle.verify ~root ~leaf:(flip_byte leaf pos) proof then
            leaf_ok := false
        done;
        let proof_ok = ref true in
        List.iteri
          (fun i (step : Crypto.Merkle.step) ->
            for pos = 0 to Bytes.length step.Crypto.Merkle.sibling - 1 do
              let mutated =
                List.mapi
                  (fun j (s : Crypto.Merkle.step) ->
                    if i = j then
                      { s with
                        Crypto.Merkle.sibling =
                          flip_byte s.Crypto.Merkle.sibling pos
                      }
                    else s)
                  proof
              in
              if Crypto.Merkle.verify ~root ~leaf mutated then proof_ok := false
            done)
          proof;
        !leaf_ok && !proof_ok);
    QCheck.Test.make ~name:"a one-leaf tree degenerates to the leaf hash"
      ~count:200 small_bytes_arb (fun leaf ->
        let t = Crypto.Merkle.build [| leaf |] in
        Crypto.Merkle.root t = Crypto.Merkle.leaf_hash leaf
        && Crypto.Merkle.proof t 0 = []
        && Crypto.Merkle.verify ~root:(Crypto.Merkle.root t) ~leaf []);
  ]

(* RFC 6962 domain separation: with the old [left | 0x01 | right] node
   layout, an interior node whose left child's digest begins with 0x00
   hashes exactly like the leaf [left[1..] | 0x01 | right], so that
   "leaf" plus the node's own path verified as a member.  Build that
   re-presentation and require it to be rejected. *)
let interior_node_as_leaf () =
  let rec zero_led i =
    let payload = Bytes.of_string (Printf.sprintf "leaf-%d" i) in
    if Bytes.get (Crypto.Merkle.leaf_hash payload) 0 = '\x00' then payload
    else zero_led (i + 1)
  in
  let leaves =
    [| zero_led 0; Bytes.of_string "b"; Bytes.of_string "c"; Bytes.of_string "d" |]
  in
  let t = Crypto.Merkle.build leaves in
  let root = Crypto.Merkle.root t in
  let left = Crypto.Merkle.leaf_hash leaves.(0) in
  let right = Crypto.Merkle.leaf_hash leaves.(1) in
  let forged =
    Bytes.concat Bytes.empty
      [ Bytes.sub left 1 (Bytes.length left - 1); Bytes.make 1 '\x01'; right ]
  in
  (* The path above the interior node (left, right): leaf 0's proof
     without its first step. *)
  let above = List.tl (Crypto.Merkle.proof t 0) in
  Alcotest.(check bool) "the genuine leaf verifies" true
    (Crypto.Merkle.verify ~root ~leaf:leaves.(0) (Crypto.Merkle.proof t 0));
  Alcotest.(check bool) "the interior node is rejected as a leaf" false
    (Crypto.Merkle.verify ~root ~leaf:forged above)

let () =
  Alcotest.run "properties"
    [
      ("word", List.map to_alcotest word_props);
      ("crypto", List.map to_alcotest crypto_props);
      ( "merkle",
        List.map to_alcotest merkle_props
        @ [
            Alcotest.test_case "an interior node is not accepted as a leaf"
              `Quick interior_node_as_leaf;
          ] );
      ("isa", List.map to_alcotest isa_props);
      ("telf", List.map to_alcotest telf_props);
      ("flow", List.map to_alcotest flow_props);
      ("eampu", List.map to_alcotest eampu_props);
      ("heap", List.map to_alcotest heap_props);
      ("task-id", List.map to_alcotest task_id_props);
      ("scheduler", List.map to_alcotest scheduler_props);
      ("assembler", List.map to_alcotest asm_props);
      ("machine", List.map to_alcotest machine_props);
    ]
