open Tytan_machine

(* The taint pass is a second worklist over the graph the abstract
   interpreter already resolved: Dataflow.succs gives the flow-sensitive
   successors (indirect transfers resolved, return edges included) and
   Dataflow.states gives the Absval in-state used to classify every
   load/store address as secret source, declassifier, own footprint or
   unknown.  Riding the finished dataflow keeps the two passes agreeing
   on one CFG and makes the taint transfer a pure label propagation. *)

type t =
  | Clean
  | Maybe of string
  | Secret of string

let is_tainted = function Clean -> false | Maybe _ | Secret _ -> true

let join a b =
  match (a, b) with
  | Secret _, _ -> a
  | _, Secret _ -> b
  | Maybe _, _ -> a
  | _, Maybe _ -> b
  | Clean, Clean -> Clean

let weaken = function
  | Secret src -> Maybe src
  | t -> t

let pp ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Maybe src -> Format.fprintf ppf "maybe(%s)" src
  | Secret src -> Format.fprintf ppf "secret(%s)" src

type sources = {
  secret_windows : (int * int * string) list;
  secret_ranges : (int * int * string) list;
  declass_windows : (int * int) list;
}

(* Interval classification: [`Inside] when [lo, hi] is contained in one
   region, [`Overlaps] when it merely intersects one, [`Outside]
   otherwise.  The callbacks receive the matching region's label. *)
let classify regions lo hi =
  let inside =
    List.find_opt (fun (base, size, _) -> lo >= base && hi < base + size)
      regions
  in
  match inside with
  | Some (_, _, label) -> `Inside label
  | None -> (
      let overlapping =
        List.find_opt
          (fun (base, size, _) -> hi >= base && lo < base + size)
          regions
      in
      match overlapping with
      | Some (_, _, label) -> `Overlaps label
      | None -> `Outside)

let in_declass windows lo hi =
  List.exists (fun (base, size) -> lo >= base && hi < base + size) windows

(* --- Memory taint ------------------------------------------------------- *)

(* Base-relative byte ranges of the task allocation known to hold secret
   material, merged on overlap so the set stays small.  Flow-insensitive:
   one set for the whole binary, reaching a fixpoint via outer
   iterations of the register pass. *)

type mem = (int * int * t) list ref

let mem_add (m : mem) lo hi taint =
  (* Absorbing one neighbour can grow the interval far enough to touch a
     range already kept, so re-scan until nothing else overlaps. *)
  let merged = ref (lo, hi, taint) in
  let rest = ref !m in
  let changed = ref true in
  while !changed do
    changed := false;
    rest :=
      List.filter
        (fun (l, h, t') ->
          let ml, mh, mt = !merged in
          if h >= ml - 1 && l <= mh + 1 then begin
            merged := (min l ml, max h mh, join t' mt);
            changed := true;
            false
          end
          else true)
        !rest
  done;
  m := !merged :: !rest

(* [exact] says the queried span [lo, hi] is the precise byte range the
   load reads (a singleton abstract address): a partial overlap then
   provably reads tainted bytes and the full taint flows.  Only an
   imprecise interval weakens the verdict to [Maybe]. *)
let mem_lookup (m : mem) ~exact lo hi =
  List.fold_left
    (fun acc (l, h, t') ->
      if lo >= l && hi <= h then join acc t'
      else if hi >= l && lo <= h then
        join acc (if exact then t' else weaken t')
      else acc)
    Clean !m

(* Ranges are kept coalesced but in arbitrary order; canonicalise before
   comparing so semantically equal sets do not burn fixpoint rounds. *)
let mem_equal a b = List.sort compare a = List.sort compare b

(* --- Register/opstack state --------------------------------------------- *)

type state = { regs : t array; opstack : t list; opstack_valid : bool }

let entry_state =
  {
    regs = Array.make Dataflow.reg_count Clean;
    opstack = [];
    opstack_valid = true;
  }

let state_join a b =
  let regs = Array.init Dataflow.reg_count (fun k -> join a.regs.(k) b.regs.(k)) in
  let opstack_valid =
    a.opstack_valid && b.opstack_valid
    && List.length a.opstack = List.length b.opstack
  in
  let opstack = if opstack_valid then List.map2 join a.opstack b.opstack else [] in
  { regs; opstack; opstack_valid }

let state_equal a b =
  Array.for_all2 ( = ) a.regs b.regs
  && a.opstack_valid = b.opstack_valid
  && List.length a.opstack = List.length b.opstack
  && List.for_all2 ( = ) a.opstack b.opstack

let set st k v =
  let regs = Array.copy st.regs in
  regs.(k) <- v;
  { st with regs }

(* Mirror of Dataflow.store_invalidates: only a store that provably
   misses the stack region leaves the spill model intact. *)
let store_may_alias_stack ~stack_region:(lo, hi) addr =
  match addr with
  | Absval.Bot -> false
  | Absval.Abs _ -> false
  | Absval.Rel (a, b) -> b >= lo && a < hi
  | Absval.Top -> true

type result = {
  taints : t array option array;
      (** taint in-state per instruction; [None] = unreachable *)
  mem_ranges : (int * int * t) list;
      (** final base-relative tainted memory ranges *)
  converged : bool;
}

let load_taint sources mem addr ~bytes =
  match addr with
  | Absval.Bot -> Clean
  | Absval.Top -> Maybe "value loaded through an unresolved pointer"
  | Absval.Abs (lo, hi) -> (
      (* A singleton abstract address makes the byte span exact: a load
         straddling a secret window's edge then provably reads secret
         bytes — only an imprecise interval downgrades to [Maybe]. *)
      let exact = lo = hi in
      let hi = hi + bytes - 1 in
      if in_declass sources.declass_windows lo hi then Clean
      else
        match classify sources.secret_windows lo hi with
        | `Inside label ->
            Secret (Printf.sprintf "%s [0x%08X]" label lo)
        | `Overlaps label ->
            if exact then
              Secret (Printf.sprintf "%s edge [0x%08X]" label lo)
            else Maybe (Printf.sprintf "window near %s [0x%08X]" label lo)
        | `Outside -> Clean)
  | Absval.Rel (lo, hi) -> (
      let exact = lo = hi in
      let hi = hi + bytes - 1 in
      let from_ranges =
        match classify sources.secret_ranges lo hi with
        | `Inside label -> Secret (Printf.sprintf "%s [base+%d]" label lo)
        | `Overlaps label ->
            if exact then
              Secret (Printf.sprintf "%s edge [base+%d]" label lo)
            else Maybe (Printf.sprintf "range near %s [base+%d]" label lo)
        | `Outside -> Clean
      in
      join from_ranges (mem_lookup mem ~exact lo hi))

let transfer sources mem ~stack_region (abs_state : Absval.t array option)
    (st : state) (instr : Isa.t) =
  let g r = st.regs.(r) in
  let addr_of rs imm =
    match abs_state with
    | Some a -> Absval.add_word a.(rs) imm
    | None -> Absval.Top
  in
  match instr with
  | Isa.Nop | Isa.Cmp _ | Isa.Cmpi _ -> st
  | Isa.Movi (rd, _) -> set st rd Clean
  | Isa.Mov (rd, rs) -> set st rd (g rs)
  | Isa.Add (rd, a, b) | Isa.Mul (rd, a, b) | Isa.And (rd, a, b)
  | Isa.Or (rd, a, b) ->
      set st rd (join (g a) (g b))
  | Isa.Sub (rd, a, b) | Isa.Xor (rd, a, b) ->
      (* r ^ r and r - r are the zeroing idioms: the result carries no
         information about the operand. *)
      set st rd (if a = b then Clean else join (g a) (g b))
  | Isa.Addi (rd, rs, _) -> set st rd (g rs)
  | Isa.Shl (rd, rs, _) | Isa.Shr (rd, rs, _) -> set st rd (g rs)
  | Isa.Ldw (rd, rs, imm) ->
      set st rd (load_taint sources mem (addr_of rs imm) ~bytes:4)
  | Isa.Ldb (rd, rs, imm) ->
      set st rd (load_taint sources mem (addr_of rs imm) ~bytes:1)
  | Isa.Stw (rs, imm, rv) | Isa.Stb (rs, imm, rv) ->
      let bytes = match instr with Isa.Stw _ -> 4 | _ -> 1 in
      let addr = addr_of rs imm in
      (match addr with
      | Absval.Rel (lo, hi) when is_tainted (g rv) ->
          (* Secret lands in the task's own allocation: remember the
             range so later loads pick the taint back up. *)
          if not (in_declass sources.declass_windows lo hi) then
            mem_add mem lo (hi + bytes - 1) (g rv)
      | _ -> ());
      if store_may_alias_stack ~stack_region addr then
        { st with opstack = []; opstack_valid = false }
      else st
  | Isa.Push r ->
      if not st.opstack_valid then st
      else if List.length st.opstack < 32 then
        { st with opstack = g r :: st.opstack }
      else
        (* The real spill stack keeps growing past the tracking cap, so
           every later pop would misalign against the model; invalidate
           it (like an aliasing store) so pops answer [Maybe], not a
           laundered [Clean]. *)
        { st with opstack = []; opstack_valid = false }
  | Isa.Pop rd ->
      let value, opstack =
        match st.opstack with
        | v :: rest -> (v, rest)
        | [] ->
            ( (if st.opstack_valid then Clean
               else Maybe "value restored from an untracked spill"),
              [] )
      in
      set { st with opstack } rd value
  | Isa.Swi _ ->
      (* The kernel writes the syscall results into r0/r1; everything
         else is preserved.  Kernel-provided values are not secrets. *)
      set (set st 0 Clean) 1 Clean
  | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _ | Isa.Jlt _ | Isa.Jge _ | Isa.Jmpr _
  | Isa.Call _ | Isa.Callr _ | Isa.Ret | Isa.Iret | Isa.Halt ->
      st

let max_outer_rounds = 8

let run sources ~stack_region (df : Dataflow.t) =
  let n = Array.length df.Dataflow.states in
  let mem : mem = ref [] in
  let taints = ref (Array.make n None) in
  let converged = ref false in
  let rounds = ref 0 in
  (* Outer fixpoint: memory taint only grows; rerun the register pass
     until the range set is stable (or give up and report it). *)
  while (not !converged) && !rounds < max_outer_rounds do
    incr rounds;
    let before = !mem in
    let states : state option array = Array.make n None in
    let queued = Array.make n false in
    let worklist = Queue.create () in
    let push i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.push i worklist
      end
    in
    let merge j st =
      if j >= 0 && j < n && Dataflow.reachable df j then
        let changed =
          match states.(j) with
          | None ->
              states.(j) <- Some { st with regs = Array.copy st.regs };
              true
          | Some old ->
              let joined = state_join old st in
              if state_equal joined old then false
              else begin
                states.(j) <- Some joined;
                true
              end
        in
        if changed then push j
    in
    let entry = df.Dataflow.cfg.Cfg.entry in
    if n > 0 && entry < n then begin
      merge entry entry_state;
      while not (Queue.is_empty worklist) do
        let i = Queue.pop worklist in
        queued.(i) <- false;
        match states.(i) with
        | None -> ()
        | Some st ->
            let out =
              match df.Dataflow.cfg.Cfg.instrs.(i) with
              | Some instr ->
                  transfer sources mem ~stack_region df.Dataflow.states.(i)
                    st instr
              | None -> st
            in
            List.iter (fun j -> merge j out) df.Dataflow.succs.(i)
      done
    end;
    taints :=
      Array.map (Option.map (fun (s : state) -> Array.copy s.regs)) states;
    if mem_equal before !mem then converged := true
  done;
  { taints = !taints; mem_ranges = !mem; converged = !converged }
