(* Sparse paged RAM against the flat store it replaced.  Random access
   sequences run on both and must agree on every result and every
   exception; the in-place accessors (iter_range, fetch, init_range) are
   checked against the flat store's copying ones.  Also: the shared zero
   page stays zero, map_device rejects windows outside the 32-bit
   address space, and a booted platform materialises few pages. *)

open Tytan_machine
open Tytan_core
module Flat = Flat_memory
module Tasks = Tytan_tasks.Task_lib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let page = 4096

(* Three pages and a partial fourth, so the last page is short. *)
let ram_size = (3 * page) + 100

(* A window inside RAM that straddles the 0x2000 page boundary, and one
   above RAM. *)
let ram_dev_base = 0x1FF8
let high_dev_base = 0xF000_0000
let dev_size = 16

type op =
  | Read8 of int
  | Write8 of int * int
  | Read32 of int
  | Write32 of int * int
  | Blit of int * string
  | Fill of int * int * int
  | Read_bytes of int * int
  | Iter_range of int * int
  | Fetch of int * int
  | Init_range of int * int * int

let pp_op = function
  | Read8 a -> Printf.sprintf "read8 0x%X" a
  | Write8 (a, v) -> Printf.sprintf "write8 0x%X 0x%X" a v
  | Read32 a -> Printf.sprintf "read32 0x%X" a
  | Write32 (a, v) -> Printf.sprintf "write32 0x%X 0x%X" a v
  | Blit (a, s) -> Printf.sprintf "blit 0x%X len=%d" a (String.length s)
  | Fill (a, n, v) -> Printf.sprintf "fill 0x%X len=%d 0x%X" a n v
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%X len=%d" a n
  | Iter_range (a, n) -> Printf.sprintf "iter_range 0x%X len=%d" a n
  | Fetch (a, n) -> Printf.sprintf "fetch 0x%X len=%d" a n
  | Init_range (a, n, s) -> Printf.sprintf "init_range 0x%X len=%d seed=%d" a n s

type case = { ram_dev : bool; hooks : bool; ops : op list }

let pp_case c =
  Printf.sprintf "ram_dev=%b hooks=%b\n  %s" c.ram_dev c.hooks
    (String.concat "\n  " (List.map pp_op c.ops))

(* --- Generators ------------------------------------------------------------ *)

let addr_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_bound (ram_size - 1));
        (3, map2 (fun k d -> (k * page) + d) (int_range 0 3) (int_range (-6) 6));
        (1, map (fun d -> ram_size + d) (int_range (-8) 4));
        (2, map (fun d -> ram_dev_base + d) (int_range (-4) (dev_size + 4)));
        (1, map (fun d -> high_dev_base + d) (int_range (-4) (dev_size + 4)));
        (1, oneofl [ -1; -4; 0xFFFF_FFFC; 0x1_0000_0000 ]);
      ])

let value_gen =
  QCheck.Gen.(frequency [ (1, return 0); (4, int_bound Word.max_value) ])

let len_gen =
  QCheck.Gen.(
    frequency [ (4, int_bound 16); (2, int_bound (2 * page)); (1, return (-1)) ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun a -> Read8 a) addr_gen);
        (3, map2 (fun a v -> Write8 (a, v)) addr_gen value_gen);
        (3, map (fun a -> Read32 a) addr_gen);
        (3, map2 (fun a v -> Write32 (a, v)) addr_gen value_gen);
        ( 1,
          map2 (fun a s -> Blit (a, s)) addr_gen
            (string_size ~gen:char (int_bound (2 * page))) );
        (1, map3 (fun a n v -> Fill (a, n, v land 0xFF)) addr_gen len_gen value_gen);
        (1, map2 (fun a n -> Read_bytes (a, n)) addr_gen len_gen);
        (1, map2 (fun a n -> Iter_range (a, n)) addr_gen len_gen);
        (1, map2 (fun a n -> Fetch (a, n)) addr_gen (int_range 1 12));
        (1, map3 (fun a n s -> Init_range (a, n, s)) addr_gen len_gen (int_bound 255));
      ])

let case_arb =
  QCheck.make ~print:pp_case
    QCheck.Gen.(
      map3
        (fun ram_dev hooks ops -> { ram_dev; hooks; ops })
        bool bool (list_size (int_bound 60) op_gen))

(* --- The two stores under one interface ------------------------------------ *)

(* A register-file device: word registers, so reads see earlier writes. *)
let regs () = Array.make (dev_size / 4) 0
let dev_read r ~offset = r.(offset / 4)
let dev_write r ~offset v = r.(offset / 4) <- v

let write_fault ~addr ~value = if addr land 7 = 3 then value lxor 0x5A else value

let mmio_read_fault ~device ~addr =
  if device = "high" && addr land 8 <> 0 then Some 0xDEAD_BEEF else None

let paged_of case =
  let m = Memory.create ~size:ram_size in
  let map name base =
    let r = regs () in
    Memory.map_device m
      { Memory.name; base; size = dev_size; read32 = dev_read r; write32 = dev_write r }
  in
  map "high" high_dev_base;
  if case.ram_dev then map "low" ram_dev_base;
  if case.hooks then begin
    Memory.set_write_fault m (Some write_fault);
    Memory.set_mmio_read_fault m (Some mmio_read_fault)
  end;
  m

let flat_of case =
  let m = Flat.create ~size:ram_size in
  let map name base =
    let r = regs () in
    Flat.map_device m
      { Flat.name; base; size = dev_size; read32 = dev_read r; write32 = dev_write r }
  in
  map "high" high_dev_base;
  if case.ram_dev then map "low" ram_dev_base;
  if case.hooks then begin
    Flat.set_write_fault m (Some write_fault);
    Flat.set_mmio_read_fault m (Some mmio_read_fault)
  end;
  m

type result = Unit | Int of int | Data of string | Raised of string

let guard f = try f () with e -> Raised (Printexc.to_string e)
let init_byte seed i = Char.chr ((seed + (i * 31)) land 0xFF)

let run_paged m op =
  guard (fun () ->
      match op with
      | Read8 a -> Int (Memory.read8 m a)
      | Write8 (a, v) -> Memory.write8 m a v; Unit
      | Read32 a -> Int (Memory.read32 m a)
      | Write32 (a, v) -> Memory.write32 m a v; Unit
      | Blit (a, s) -> Memory.blit_bytes m a (Bytes.of_string s); Unit
      | Fill (a, n, v) -> Memory.fill m a n v; Unit
      | Read_bytes (a, n) -> Data (Bytes.to_string (Memory.read_bytes m a n))
      | Iter_range (a, n) ->
          let buf = Buffer.create 16 in
          Memory.iter_range m a n (fun b ~pos ~len ->
              Buffer.add_subbytes buf b pos len);
          Data (Buffer.contents buf)
      | Fetch (a, n) ->
          Data (Memory.fetch m a n (fun b off -> Bytes.sub_string b off n))
      | Init_range (a, n, seed) -> Memory.init_range m a n (init_byte seed); Unit)

(* The flat store has no in-place accessors.  Their oracle is
   [read_bytes] over the same range, which checks it the same way; its
   exception is renamed to the accessor under test. *)
let checked_range m name a n =
  try Flat.read_bytes m a n
  with Invalid_argument msg ->
    let skip = String.length "Memory.read_bytes:" in
    let rest = String.sub msg skip (String.length msg - skip) in
    invalid_arg (Printf.sprintf "Memory.%s:%s" name rest)

let run_flat m op =
  guard (fun () ->
      match op with
      | Read8 a -> Int (Flat.read8 m a)
      | Write8 (a, v) -> Flat.write8 m a v; Unit
      | Read32 a -> Int (Flat.read32 m a)
      | Write32 (a, v) -> Flat.write32 m a v; Unit
      | Blit (a, s) -> Flat.blit_bytes m a (Bytes.of_string s); Unit
      | Fill (a, n, v) -> Flat.fill m a n v; Unit
      | Read_bytes (a, n) -> Data (Bytes.to_string (Flat.read_bytes m a n))
      | Iter_range (a, n) ->
          Data (Bytes.to_string (checked_range m "iter_range" a n))
      | Fetch (a, n) -> Data (Bytes.to_string (checked_range m "fetch" a n))
      | Init_range (a, n, seed) ->
          ignore (checked_range m "init_range" a n);
          Flat.blit_bytes m a (Bytes.init n (init_byte seed));
          Unit)

let all_zero m =
  let ok = ref true in
  Memory.iter_range m 0 (Memory.size m) (fun b ~pos ~len ->
      for i = pos to pos + len - 1 do
        if Bytes.get b i <> '\000' then ok := false
      done);
  !ok

(* --- Properties ------------------------------------------------------------ *)

let differential =
  QCheck.Test.make ~name:"paged RAM agrees with the flat store" ~count:400
    case_arb (fun case ->
      let untouched = Memory.create ~size:ram_size in
      let paged = paged_of case and flat = flat_of case in
      let agree =
        List.for_all
          (fun op ->
            let p = run_paged paged op and f = run_flat flat op in
            p = f
            || QCheck.Test.fail_reportf "%s diverged" (pp_op op))
          case.ops
      in
      agree
      && Memory.read_bytes paged 0 ram_size = Flat.read_bytes flat 0 ram_size
      && Memory.resident_bytes paged <= 4 * page
      && all_zero untouched
      && all_zero (Memory.create ~size:ram_size))

let properties = [ differential ]

(* --- Unit tests ------------------------------------------------------------ *)

let device ~base ~size =
  {
    Memory.name = "d";
    base;
    size;
    read32 = (fun ~offset:_ -> 0);
    write32 = (fun ~offset:_ _ -> ());
  }

let rejected f = try f (); false with Invalid_argument _ -> true

let unit_tests =
  [
    Alcotest.test_case "map_device rejects windows past 2^32" `Quick (fun () ->
        let m = Memory.create ~size:64 in
        let maps base size = Memory.map_device m (device ~base ~size) in
        check_bool "ends past the top" true
          (rejected (fun () -> maps 0xFFFF_FFF8 16));
        check_bool "starts past the top" true
          (rejected (fun () -> maps 0x1_0000_0000 4));
        maps 0xFFFF_FFF0 16;
        check_bool "window ending at 2^32 maps" true
          (Memory.device_at m 0xFFFF_FFFF <> None));
    Alcotest.test_case "pages materialise on first write only" `Quick (fun () ->
        let m = Memory.create ~size:(8 * page) in
        check_int "fresh" 0 (Memory.resident_bytes m);
        ignore (Memory.read32 m (3 * page));
        ignore (Memory.read_bytes m 0 (8 * page));
        Memory.fill m 0 (8 * page) 0;
        check_int "reads and zero fills" 0 (Memory.resident_bytes m);
        Memory.write32 m ((2 * page) - 2) 0x11223344;
        check_int "straddling store" (2 * page) (Memory.resident_bytes m);
        check_int "straddling load" 0x11223344 (Memory.read32 m ((2 * page) - 2));
        check_bool "others still zero" true (all_zero (Memory.create ~size:page)));
    Alcotest.test_case "fetch decodes in place, copies across pages" `Quick (fun () ->
        let m = Memory.create ~size:(2 * page) in
        let word = Isa.encode (Isa.Movi (3, 0xCAFE)) in
        Memory.blit_bytes m 0x100 word;
        Memory.blit_bytes m (page - 4) word;
        check_bool "in page" true
          (Memory.fetch m 0x100 Isa.width Isa.decode_at = Isa.Movi (3, 0xCAFE));
        check_bool "straddling" true
          (Memory.fetch m (page - 4) Isa.width Isa.decode_at = Isa.Movi (3, 0xCAFE));
        check_bool "past the end" true
          (rejected (fun () ->
               ignore (Memory.fetch m ((2 * page) - 4) Isa.width Isa.decode_at))));
    Alcotest.test_case "booted platform materialises few pages" `Quick (fun () ->
        let p = Platform.create () in
        List.iter
          (fun i ->
            ignore
              (Result.get_ok
                 (Platform.load_blocking p ~name:(Printf.sprintf "counter-%d" i)
                    (Tasks.counter ()))))
          [ 0; 1; 2 ];
        Platform.run_ticks p 60;
        let m = Platform.memory p in
        check_int "512 pages of RAM" (512 * page) (Memory.size m);
        let pages = Memory.resident_bytes m / page in
        if pages > 80 then Alcotest.failf "%d of 512 pages materialised" pages);
  ]

let () =
  Alcotest.run "memory"
    [
      ("differential", List.map QCheck_alcotest.to_alcotest properties);
      ("unit", unit_tests);
    ]
