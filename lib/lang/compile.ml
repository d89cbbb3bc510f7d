open Tytan_machine
open Tytan_core

(* Register conventions (see the mli): the expression result lives in r0,
   r1 is the right operand of a binop, r4 holds variable addresses,
   r12 the inbox pointer. *)

let var_label name = "g_" ^ name

type ctx = {
  asm : Assembler.t;
  mutable next_label : int;
  bounds : (int * int) list ref;
      (* loop-header byte offset → max header executions; shared between
         the main and on_message contexts and handed to tycheck *)
}

let fresh ctx prefix =
  let n = ctx.next_label in
  ctx.next_label <- n + 1;
  Printf.sprintf "__%s_%d" prefix n

let emit ctx i = Assembler.instr ctx.asm i

let annotate_loop ctx bound =
  ctx.bounds := (Assembler.here ctx.asm, bound) :: !(ctx.bounds)

let rec compile_expr ctx (e : Ast.expr) =
  match e with
  | Ast.Int n -> emit ctx (Isa.Movi (0, Word.of_int n))
  | Ast.Var name ->
      Assembler.movi_label ctx.asm ~rd:4 (var_label name);
      emit ctx (Isa.Ldw (0, 4, 0))
  | Ast.Load addr ->
      compile_expr ctx addr;
      emit ctx (Isa.Ldw (0, 0, 0))
  | Ast.Inbox_status -> emit ctx (Isa.Ldw (0, 12, 0))
  | Ast.Inbox_word i -> emit ctx (Isa.Ldw (0, 12, 16 + (4 * i)))
  | Ast.Binop (op, a, b) -> (
      compile_expr ctx a;
      emit ctx (Isa.Push 0);
      compile_expr ctx b;
      emit ctx (Isa.Mov (1, 0));
      emit ctx (Isa.Pop 0);
      match op with
      | Ast.Add -> emit ctx (Isa.Add (0, 0, 1))
      | Ast.Sub -> emit ctx (Isa.Sub (0, 0, 1))
      | Ast.Mul -> emit ctx (Isa.Mul (0, 0, 1))
      | Ast.And -> emit ctx (Isa.And (0, 0, 1))
      | Ast.Or -> emit ctx (Isa.Or (0, 0, 1))
      | Ast.Xor -> emit ctx (Isa.Xor (0, 0, 1))
      | Ast.Shl ->
          (* dynamic shifts are lowered as repeated doubling *)
          compile_shift ctx ~left:true ~amount:b
      | Ast.Shr -> compile_shift ctx ~left:false ~amount:b
      | Ast.Eq -> compile_compare ctx (fun l -> Assembler.jz_label ctx.asm l)
      | Ast.Ne -> compile_compare ctx (fun l -> Assembler.jnz_label ctx.asm l)
      | Ast.Lt -> compile_compare ctx (fun l -> Assembler.jlt_label ctx.asm l)
      | Ast.Ge -> compile_compare ctx (fun l -> Assembler.jge_label ctx.asm l))

(* r0 := r0 <shifted by> r1, as a loop (the ISA only has immediate
   shifts).  A literal shift amount yields a loop bound for tycheck. *)
and compile_shift ctx ~left ~amount =
  let loop = fresh ctx "shift" in
  let done_ = fresh ctx "shift_done" in
  Assembler.label ctx.asm loop;
  (match amount with
  | Ast.Int n when n >= 0 && n <= 0xFFFF -> annotate_loop ctx (n + 1)
  | _ -> ());
  emit ctx (Isa.Cmpi (1, 0));
  Assembler.jz_label ctx.asm done_;
  emit ctx (if left then Isa.Shl (0, 0, 1) else Isa.Shr (0, 0, 1));
  emit ctx (Isa.Addi (1, 1, Word.of_signed (-1)));
  Assembler.jmp_label ctx.asm loop;
  Assembler.label ctx.asm done_

(* r0 := (r0 ? r1) as 0/1, where [branch_if_true] jumps when the compare
   flags satisfy the operator.  Movi does not touch the flags, so the
   1-then-maybe-0 sequence is sound. *)
and compile_compare ctx branch_if_true =
  let yes = fresh ctx "cmp" in
  emit ctx (Isa.Cmp (0, 1));
  emit ctx (Isa.Movi (0, 1));
  branch_if_true yes;
  emit ctx (Isa.Movi (0, 0));
  Assembler.label ctx.asm yes

let rec compile_stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Assign (name, e) ->
      compile_expr ctx e;
      Assembler.movi_label ctx.asm ~rd:4 (var_label name);
      emit ctx (Isa.Stw (4, 0, 0))
  | Ast.Store (addr, value) ->
      compile_expr ctx addr;
      emit ctx (Isa.Push 0);
      compile_expr ctx value;
      emit ctx (Isa.Mov (1, 0));
      emit ctx (Isa.Pop 0);
      emit ctx (Isa.Stw (0, 0, 1))
  | Ast.If (cond, then_, else_) ->
      let else_label = fresh ctx "else" in
      let end_label = fresh ctx "endif" in
      compile_expr ctx cond;
      emit ctx (Isa.Cmpi (0, 0));
      Assembler.jz_label ctx.asm else_label;
      compile_block ctx then_;
      Assembler.jmp_label ctx.asm end_label;
      Assembler.label ctx.asm else_label;
      compile_block ctx else_;
      Assembler.label ctx.asm end_label
  | Ast.While (cond, body) ->
      let loop = fresh ctx "while" in
      let end_label = fresh ctx "endwhile" in
      Assembler.label ctx.asm loop;
      compile_expr ctx cond;
      emit ctx (Isa.Cmpi (0, 0));
      Assembler.jz_label ctx.asm end_label;
      compile_block ctx body;
      Assembler.jmp_label ctx.asm loop;
      Assembler.label ctx.asm end_label
  | Ast.Repeat (count, body) ->
      (* r11 counts down; saved around the loop so repeats nest. *)
      let loop = fresh ctx "repeat" in
      let done_ = fresh ctx "repeat_done" in
      emit ctx (Isa.Push 11);
      emit ctx (Isa.Movi (11, Word.of_int count));
      Assembler.label ctx.asm loop;
      annotate_loop ctx (count + 1);
      emit ctx (Isa.Cmpi (11, 0));
      Assembler.jz_label ctx.asm done_;
      compile_block ctx body;
      emit ctx (Isa.Addi (11, 11, Word.of_signed (-1)));
      Assembler.jmp_label ctx.asm loop;
      Assembler.label ctx.asm done_;
      emit ctx (Isa.Pop 11)
  | Ast.Delay e ->
      compile_expr ctx e;
      emit ctx (Isa.Swi 2)
  | Ast.Yield -> emit ctx (Isa.Swi 0)
  | Ast.Exit -> emit ctx (Isa.Swi 1)
  | Ast.Send { payload; receiver; sync } ->
      (* Evaluate payload words onto the stack, then pop them into
         r(m-1) … r0. *)
      List.iter
        (fun e ->
          compile_expr ctx e;
          emit ctx (Isa.Push 0))
        payload;
      let m = List.length payload in
      for reg = m - 1 downto 0 do
        emit ctx (Isa.Pop reg)
      done;
      let lo, hi = Task_id.to_words receiver in
      emit ctx (Isa.Movi (8, lo));
      emit ctx (Isa.Movi (9, hi));
      emit ctx (Isa.Movi (10, if sync then Ipc.mode_sync else Ipc.mode_async));
      emit ctx (Isa.Swi Ipc.swi_send)
  | Ast.Clear_inbox ->
      emit ctx (Isa.Movi (0, 0));
      emit ctx (Isa.Stw (12, 0, 0))
  | Ast.Queue_send { queue; value; timeout } ->
      compile_expr ctx value;
      emit ctx (Isa.Mov (1, 0));
      emit ctx (Isa.Movi (0, Word.of_int queue));
      emit ctx (Isa.Movi (2, Word.of_int timeout));
      emit ctx (Isa.Swi 8)
  | Ast.Queue_recv { queue; into; timeout } ->
      emit ctx (Isa.Movi (0, Word.of_int queue));
      emit ctx (Isa.Movi (2, Word.of_int timeout));
      emit ctx (Isa.Swi 9);
      (* r0 = value, r1 = status: keep the variable on timeout *)
      let skip = fresh ctx "recv_skip" in
      emit ctx (Isa.Cmpi (1, 0));
      Assembler.jnz_label ctx.asm skip;
      Assembler.movi_label ctx.asm ~rd:4 (var_label into);
      emit ctx (Isa.Stw (4, 0, 0));
      Assembler.label ctx.asm skip

and compile_block ctx stmts = List.iter (compile_stmt ctx) stmts

let compile_body ~bounds (t : Ast.program) asm =
  let ctx = { asm; next_label = 0; bounds } in
  Assembler.label asm "main";
  compile_block ctx t.body;
  (* Falling off the end parks the task politely. *)
  let park = fresh ctx "park" in
  Assembler.label asm park;
  emit ctx (Isa.Movi (0, 1000));
  emit ctx (Isa.Swi 2);
  Assembler.jmp_label asm park;
  ctx

let emit_globals asm (t : Ast.program) =
  Assembler.begin_data asm;
  List.iter
    (fun (name, init) ->
      Assembler.label asm (var_label name);
      Assembler.word asm (Word.of_int init))
    t.globals

let build ~secure (t : Ast.program) =
  (match Ast.validate t with
  | Ok () -> ()
  | Error e -> invalid_arg ("Tasklang: " ^ e));
  let bounds = ref [] in
  let program =
    if secure then
      let on_message =
        Option.map
          (fun handler p ->
            let ctx = { asm = p; next_label = 10_000; bounds } in
            Assembler.label p "on_message";
            compile_block ctx handler;
            Assembler.instr p Isa.Ret)
          t.on_message
      in
      Toolchain.secure_program
        ~main:(fun p ->
          let _ctx = compile_body ~bounds t p in
          emit_globals p t)
        ?on_message ()
    else begin
      if t.on_message <> None then
        invalid_arg "Tasklang: normal tasks cannot have a message handler";
      Toolchain.normal_program ~main:(fun p ->
          let _ctx = compile_body ~bounds t p in
          emit_globals p t)
    end
  in
  (program, List.rev !bounds)

(* Every receiver a [Send] can name is statically known (task identities
   are literals in the AST), so the compiler can prove the program's IPC
   topology and declare it in the image manifest.  A task that sends
   therefore always ships its peer list; the flow verifier refuses any
   image whose provable sends exceed what it declared. *)
let rec stmt_peers acc (s : Ast.stmt) =
  match s with
  | Ast.Send { receiver; _ } ->
      let words = Task_id.to_words receiver in
      if List.mem words acc then acc else words :: acc
  | Ast.If (_, then_, else_) -> block_peers (block_peers acc then_) else_
  | Ast.While (_, body) | Ast.Repeat (_, body) -> block_peers acc body
  | Ast.Assign _ | Ast.Store _ | Ast.Delay _ | Ast.Yield | Ast.Exit
  | Ast.Clear_inbox | Ast.Queue_send _ | Ast.Queue_recv _ ->
      acc

and block_peers acc stmts = List.fold_left stmt_peers acc stmts

let manifest_of (t : Ast.program) (p : Assembler.program) =
  let peers =
    List.rev
      (block_peers
         (block_peers [] t.body)
         (Option.value t.on_message ~default:[]))
  in
  let secret_ranges =
    List.filter_map
      (fun name ->
        Option.map
          (fun off -> (off, 4))
          (List.assoc_opt (var_label name) p.symbols))
      t.secrets
  in
  Tytan_telf.Manifest.make ~peers ~secret_ranges ()

type compiled = {
  telf : Tytan_telf.Telf.t;
  loop_bounds : (int * int) list;
}

let compile ?(secure = true) ?(stack_size = 512) t =
  let program, loop_bounds = build ~secure t in
  {
    telf =
      Tytan_telf.Builder.of_program ~manifest:(manifest_of t program)
        ~stack_size program;
    loop_bounds;
  }

let to_telf ?secure ?stack_size t = (compile ?secure ?stack_size t).telf

let check ?secure ?stack_size ?config t =
  let secure_flag = Option.value secure ~default:true in
  let { telf; loop_bounds } = compile ?secure ?stack_size t in
  let base = Option.value config ~default:Tytan_analysis.Tycheck.default_config in
  let config =
    {
      base with
      Tytan_analysis.Tycheck.loop_bounds =
        loop_bounds @ base.Tytan_analysis.Tycheck.loop_bounds;
      r12_inbox = secure_flag;
    }
  in
  Tytan_analysis.Tycheck.check ~config telf
