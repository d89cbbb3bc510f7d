type device = {
  name : string;
  base : Word.t;
  size : int;
  read32 : offset:int -> Word.t;
  write32 : offset:int -> Word.t -> unit;
}

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let address_space = 1 lsl Word.bits

(* Every unwritten page of every [t] aliases this one page.  No store
   path writes it: each materialises a private page first. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  size : int;
  pages : Bytes.t array;
  mutable resident : int;
  mutable devices : device list;
  mutable device_floor : int;
      (* lowest mapped MMIO base, [max_int] when none: an address below
         it is RAM without walking [devices] *)
  mutable write_fault : (addr:Word.t -> value:Word.t -> Word.t) option;
  mutable mmio_read_fault : (device:string -> addr:Word.t -> Word.t option) option;
}

let create ~size =
  if size < 0 then invalid_arg "Memory.create: negative size";
  {
    size;
    pages = Array.make ((size + page_mask) lsr page_bits) zero_page;
    resident = 0;
    devices = [];
    device_floor = max_int;
    write_fault = None;
    mmio_read_fault = None;
  }

let size t = t.size
let resident_bytes t = t.resident * page_size
let set_write_fault t hook = t.write_fault <- hook
let set_mmio_read_fault t hook = t.mmio_read_fault <- hook

let faulted_write t ~addr ~value =
  match t.write_fault with
  | None -> value
  | Some hook -> hook ~addr ~value

let faulted_mmio_read t (d : device) ~addr ~offset =
  match t.mmio_read_fault with
  | None -> d.read32 ~offset
  | Some hook -> (
      match hook ~device:d.name ~addr with
      | Some garbage -> garbage
      | None -> d.read32 ~offset)

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let map_device t d =
  if d.base < 0 || d.size <= 0 || d.base + d.size > address_space then
    invalid_arg "Memory.map_device: bad window";
  match List.find_opt (overlaps d) t.devices with
  | Some other ->
      invalid_arg
        (Printf.sprintf "Memory.map_device: %s overlaps %s" d.name other.name)
  | None ->
      t.devices <- d :: t.devices;
      t.device_floor <- min t.device_floor d.base

let device_at t addr =
  let covers d = addr >= d.base && addr < d.base + d.size in
  List.find_opt covers t.devices

(* The device covering [addr], if any; below the lowest window that is
   known without walking the list. *)
let[@inline] mmio t addr =
  if addr < t.device_floor then None else device_at t addr

let in_ram t addr len = addr >= 0 && len >= 0 && addr + len <= t.size

let bounds_fail op addr =
  invalid_arg (Printf.sprintf "Memory.%s: address 0x%08X out of range" op addr)

(* --- Pages ---------------------------------------------------------------- *)

let page t addr = t.pages.(addr lsr page_bits)

(* The page holding [addr], given its own bytes if it still aliases the
   zero page. *)
let writable t addr =
  let i = addr lsr page_bits in
  let p = t.pages.(i) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    t.resident <- t.resident + 1;
    p
  end

(* [chunks addr len f] splits [\[addr, addr+len)] at page boundaries and
   calls [f a pos n] for each piece: its address, its offset within the
   range and its length. *)
let chunks addr len f =
  let rec go a pos =
    if pos < len then begin
      let n = min (len - pos) (page_size - (a land page_mask)) in
      f a pos n;
      go (a + n) (pos + n)
    end
  in
  go addr 0

let ram_read8 t addr = Char.code (Bytes.get (page t addr) (addr land page_mask))

let ram_write8 t addr v =
  Bytes.set (writable t addr) (addr land page_mask) (Char.chr (v land 0xFF))

let ram_read32 t addr =
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page t addr) off) land Word.max_value
  else
    ram_read8 t addr
    lor (ram_read8 t (addr + 1) lsl 8)
    lor (ram_read8 t (addr + 2) lsl 16)
    lor (ram_read8 t (addr + 3) lsl 24)

let ram_write32 t addr v =
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (writable t addr) off (Int32.of_int v)
  else
    for i = 0 to 3 do
      ram_write8 t (addr + i) (v lsr (8 * i))
    done

(* --- Accessors ------------------------------------------------------------ *)

let read8 t addr =
  match mmio t addr with
  | Some d ->
      let offset = (addr - d.base) land lnot 3 in
      let word = faulted_mmio_read t d ~addr ~offset in
      (word lsr (8 * (addr land 3))) land 0xFF
  | None ->
      if not (in_ram t addr 1) then bounds_fail "read8" addr;
      ram_read8 t addr

let write8 t addr v =
  match mmio t addr with
  | Some d ->
      let offset = (addr - d.base) land lnot 3 in
      let old = d.read32 ~offset in
      let shift = 8 * (addr land 3) in
      let updated = old land lnot (0xFF lsl shift) lor ((v land 0xFF) lsl shift) in
      d.write32 ~offset (Word.of_int updated)
  | None ->
      if not (in_ram t addr 1) then bounds_fail "write8" addr;
      ram_write8 t addr (faulted_write t ~addr ~value:(v land 0xFF))

let read32 t addr =
  match mmio t addr with
  | Some d ->
      if addr land 3 <> 0 then
        invalid_arg "Memory.read32: unaligned MMIO access";
      faulted_mmio_read t d ~addr ~offset:(addr - d.base)
  | None ->
      if not (in_ram t addr 4) then bounds_fail "read32" addr;
      ram_read32 t addr

let write32 t addr v =
  match mmio t addr with
  | Some d ->
      if addr land 3 <> 0 then
        invalid_arg "Memory.write32: unaligned MMIO access";
      d.write32 ~offset:(addr - d.base) v
  | None ->
      if not (in_ram t addr 4) then bounds_fail "write32" addr;
      ram_write32 t addr (faulted_write t ~addr ~value:v)

let blit_bytes t addr b =
  let len = Bytes.length b in
  if not (in_ram t addr len) then bounds_fail "blit_bytes" addr;
  chunks addr len (fun a pos n ->
      Bytes.blit b pos (writable t a) (a land page_mask) n)

let read_bytes t addr len =
  if not (in_ram t addr len) then bounds_fail "read_bytes" addr;
  let out = Bytes.create len in
  chunks addr len (fun a pos n ->
      Bytes.blit (page t a) (a land page_mask) out pos n);
  out

let fill t addr len v =
  if not (in_ram t addr len) then bounds_fail "fill" addr;
  let c = Char.chr (v land 0xFF) in
  chunks addr len (fun a _ n ->
      (* Zeroing a page that was never written changes nothing. *)
      if c <> '\000' || page t a != zero_page then
        Bytes.fill (writable t a) (a land page_mask) n c)

let init_range t addr len f =
  if not (in_ram t addr len) then bounds_fail "init_range" addr;
  chunks addr len (fun a pos n ->
      let p = writable t a and off = a land page_mask in
      for i = 0 to n - 1 do
        Bytes.set p (off + i) (f (pos + i))
      done)

let iter_range t addr len f =
  if not (in_ram t addr len) then bounds_fail "iter_range" addr;
  chunks addr len (fun a _ n -> f (page t a) ~pos:(a land page_mask) ~len:n)

let fetch t addr len decode =
  if not (in_ram t addr len) then bounds_fail "fetch" addr;
  let off = addr land page_mask in
  if off + len <= page_size then decode (page t addr) off
  else decode (read_bytes t addr len) 0
