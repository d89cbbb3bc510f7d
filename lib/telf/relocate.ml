open Tytan_machine

let patch ~image ~relocations f =
  Array.iter
    (fun off ->
      let v = Int32.to_int (Bytes.get_int32_le image off) land Word.max_value in
      Bytes.set_int32_le image off (Int32.of_int (f v)))
    relocations

let apply ~base ~image ~relocations =
  patch ~image ~relocations (fun v -> Word.add v base)

let revert ~base ~image ~relocations =
  patch ~image ~relocations (fun v -> Word.sub v base)
