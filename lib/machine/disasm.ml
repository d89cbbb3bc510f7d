type line = {
  addr : Word.t;
  instr : Isa.t option;
  raw : bytes;
}

let of_bytes ?(base = 0) b =
  let len = Bytes.length b in
  let slots = len / Isa.width in
  let full =
    List.init slots (fun i ->
        let raw = Bytes.sub b (i * Isa.width) Isa.width in
        let instr =
          try Some (Isa.decode raw) with Invalid_argument _ -> None
        in
        { addr = base + (i * Isa.width); instr; raw })
  in
  (* A trailing partial slot is still shown: silently dropping it would
     hide exactly the malformed images a linter needs to see. *)
  if len mod Isa.width = 0 then full
  else
    full
    @ [
        {
          addr = base + (slots * Isa.width);
          instr = None;
          raw = Bytes.sub b (slots * Isa.width) (len mod Isa.width);
        };
      ]

let hex raw =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (Bytes.to_seq raw)))

let pp_line ppf line =
  match line.instr with
  | Some instr -> Format.fprintf ppf "%06X  %a" line.addr Isa.pp instr
  | None -> Format.fprintf ppf "%06X  .bytes %s" line.addr (hex line.raw)

let pp ppf lines =
  List.iter (fun line -> Format.fprintf ppf "%a@." pp_line line) lines

let annotate ~symbols ~base lines =
  List.map
    (fun line ->
      let label =
        List.find_opt (fun (_, off) -> base + off = line.addr) symbols
      in
      (Option.map fst label, line))
    lines
