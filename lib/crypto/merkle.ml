(* Binary Merkle tree over SHA-256.  Leaves hash as 0x00 || payload and
   interior nodes as left || 0x01 || right.  This is weaker than RFC
   6962, which prefixes nodes with 0x01: an interior node whose left
   child's hash starts with 0x00 can be presented as a leaf.  An odd
   node at any level is promoted unchanged — no duplication — so a
   singleton tree's root is exactly the leaf hash. *)

let leaf_prefix = Bytes.make 1 '\x00'
let node_prefix = Bytes.make 1 '\x01'

(* Prefix and payload are fed to one context, never concatenated. *)
let leaf_hash payload =
  let ctx = Sha256.init () in
  Sha256.feed ctx leaf_prefix;
  Sha256.feed ctx payload;
  Sha256.finalize ctx

(* The 0x01 byte sits between the two children, not in front of them:
   every committed root and golden file depends on this layout. *)
let node_hash left right =
  let ctx = Sha256.init () in
  Sha256.feed ctx left;
  Sha256.feed ctx node_prefix;
  Sha256.feed ctx right;
  Sha256.finalize ctx

type step = { sibling : bytes; sibling_on_left : bool }
type proof = step list

type t = {
  levels : bytes array array;
      (* levels.(0) = leaf hashes; last level is the single root *)
  count : int;
}

let build leaves =
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Merkle.build: empty leaf set";
  let base = Array.map leaf_hash leaves in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let m = Array.length level in
      let next =
        Array.init ((m + 1) / 2) (fun i ->
            if (2 * i) + 1 < m then node_hash level.(2 * i) level.((2 * i) + 1)
            else level.(2 * i))
      in
      up (level :: acc) next
    end
  in
  { levels = Array.of_list (up [] base); count = n }

let root t = Bytes.copy t.levels.(Array.length t.levels - 1).(0)

let proof t index =
  if index < 0 || index >= t.count then invalid_arg "Merkle.proof: bad index";
  let steps = ref [] in
  let idx = ref index in
  for l = 0 to Array.length t.levels - 2 do
    let level = t.levels.(l) in
    let sib = if !idx land 1 = 0 then !idx + 1 else !idx - 1 in
    if sib < Array.length level then
      steps :=
        { sibling = Bytes.copy level.(sib); sibling_on_left = !idx land 1 = 1 }
        :: !steps;
    idx := !idx / 2
  done;
  List.rev !steps

let verify ~root:expected ~leaf proof =
  let acc =
    List.fold_left
      (fun acc { sibling; sibling_on_left } ->
        if sibling_on_left then node_hash sibling acc else node_hash acc sibling)
      (leaf_hash leaf) proof
  in
  Constant_time.equal acc expected

(* Incremental tree: leaves persist across commits and only the
   root-paths of changed leaves are rehashed.  Shape and hashing rules
   are identical to [build] (same prefixes, same odd-node promotion),
   locked by the QCheck differential suite — the incremental root and
   proofs must be indistinguishable from a full rebuild over the same
   payloads. *)
module Inc = struct
  module Int_set = Set.Make (Int)

  type t = {
    mutable leaves : bytes array;  (* leaf hashes; capacity >= count *)
    mutable count : int;
    mutable committed_count : int;  (* leaf count at the last commit *)
    mutable upper : bytes array array;
        (* upper.(l) = committed nodes at height l+1, exact sizes *)
    mutable dirty : Int_set.t;  (* leaf indices touched since last commit *)
  }

  let create () =
    {
      leaves = [||];
      count = 0;
      committed_count = 0;
      upper = [||];
      dirty = Int_set.empty;
    }

  let size t = t.count

  let ensure_capacity t n =
    if n > Array.length t.leaves then begin
      let cap = max 8 (max n (2 * Array.length t.leaves)) in
      let grown = Array.make cap Bytes.empty in
      Array.blit t.leaves 0 grown 0 t.count;
      t.leaves <- grown
    end

  let append t payload =
    ensure_capacity t (t.count + 1);
    t.leaves.(t.count) <- leaf_hash payload;
    t.dirty <- Int_set.add t.count t.dirty;
    t.count <- t.count + 1;
    t.count - 1

  let set t index payload =
    if index < 0 || index >= t.count then invalid_arg "Merkle.Inc.set: bad index";
    t.leaves.(index) <- leaf_hash payload;
    t.dirty <- Int_set.add index t.dirty

  (* Propagate dirty indices level by level.  At each level the parents
     needing recomputation are (a) parents of dirty children and (b) on
     growth, the old last parent when the old child count was odd — its
     child was promoted unchanged before and may now have a sibling.
     Every *new* parent slot has a child at an appended (hence dirty)
     index, so growth slots are covered by (a). *)
  let commit t =
    if t.count = 0 then invalid_arg "Merkle.Inc.commit: empty tree";
    let child = ref t.leaves in
    let child_size = ref t.count in
    let old_child_size = ref t.committed_count in
    let dirty = ref t.dirty in
    let level = ref 0 in
    let rebuilt = ref [] in
    while !child_size > 1 do
      let parent_size = (!child_size + 1) / 2 in
      let old_parent_size =
        if !level < Array.length t.upper then Array.length t.upper.(!level)
        else 0
      in
      let parent =
        if old_parent_size = parent_size then t.upper.(!level)
        else begin
          let grown = Array.make parent_size Bytes.empty in
          if old_parent_size > 0 then
            Array.blit t.upper.(!level) 0 grown 0
              (min old_parent_size parent_size);
          grown
        end
      in
      let todo =
        Int_set.fold (fun i acc -> Int_set.add (i / 2) acc) !dirty Int_set.empty
      in
      let todo =
        if
          !child_size > !old_child_size
          && !old_child_size > 0
          && !old_child_size land 1 = 1
        then Int_set.add ((!old_child_size - 1) / 2) todo
        else todo
      in
      Int_set.iter
        (fun j ->
          let left = (!child).(2 * j) in
          parent.(j) <-
            (if (2 * j) + 1 < !child_size then
               node_hash left (!child).((2 * j) + 1)
             else left))
        todo;
      rebuilt := parent :: !rebuilt;
      dirty := todo;
      child := parent;
      old_child_size := old_parent_size;
      child_size := parent_size;
      incr level
    done;
    t.upper <- Array.of_list (List.rev !rebuilt);
    t.committed_count <- t.count;
    t.dirty <- Int_set.empty;
    Bytes.copy (if t.count = 1 then t.leaves.(0) else (!child).(0))

  let check_committed t op =
    if t.count = 0 then invalid_arg (op ^ ": empty tree");
    if t.committed_count <> t.count || not (Int_set.is_empty t.dirty) then
      invalid_arg (op ^ ": uncommitted changes")

  let root t =
    check_committed t "Merkle.Inc.root";
    Bytes.copy
      (if t.count = 1 then t.leaves.(0)
       else t.upper.(Array.length t.upper - 1).(0))

  let proof t index =
    check_committed t "Merkle.Inc.proof";
    if index < 0 || index >= t.count then
      invalid_arg "Merkle.Inc.proof: bad index";
    let steps = ref [] in
    let idx = ref index in
    let level_size = ref t.count in
    let get_level l = if l = 0 then t.leaves else t.upper.(l - 1) in
    for l = 0 to Array.length t.upper - 1 do
      let nodes = get_level l in
      let sib = if !idx land 1 = 0 then !idx + 1 else !idx - 1 in
      if sib < !level_size then
        steps :=
          { sibling = Bytes.copy nodes.(sib); sibling_on_left = !idx land 1 = 1 }
          :: !steps;
      idx := !idx / 2;
      level_size := (!level_size + 1) / 2
    done;
    List.rev !steps
end
