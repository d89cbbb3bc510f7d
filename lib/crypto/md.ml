(* The Merkle–Damgård frame shared by SHA-1 and SHA-256: block
   buffering, length padding, context snapshots and the compression
   counters.  32-bit lanes are OCaml ints masked to 32 bits.

   Compression is the hottest code in the whole simulator — every
   measurement, MAC and Merkle node lands here — so it avoids per-block
   work: the message schedule is preallocated in the context and the
   block loads use unsafe byte accessors.  The unsafe accesses are sound
   because [compress] is only ever called with
   [pos + block_size <= Bytes.length block], an invariant [feed_sub]
   (the single call site gatekeeper) validates on entry. *)

module type COMPRESSION = sig
  val name : string
  val iv : int array
  val schedule_words : int
  val compress : int array -> int array -> unit
end

module type S = sig
  type ctx

  val digest_size : int
  val block_size : int
  val init : unit -> ctx
  val copy : ctx -> ctx
  val feed : ctx -> bytes -> unit
  val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit
  val finalize : ctx -> bytes
  val digest : bytes -> bytes
  val digest_string : string -> bytes
  val compression_count : ctx -> int
  val to_hex : bytes -> string
  val total_compressions : unit -> int
  val domain_compressions : unit -> int
end

module Make (C : COMPRESSION) = struct
  let digest_size = 4 * Array.length C.iv
  let block_size = 64

  (* Process-global and per-domain compression tallies.  The global
     count is an [Atomic.t] so concurrent domains never lose increments;
     the per-domain count backs cycle charging ([charged]-style samplers
     take a delta around an operation, which must not see another
     domain's compressions interleave). *)
  let global_compressions = Atomic.make 0
  let domain_compressions_key = Domain.DLS.new_key (fun () -> ref 0)

  type ctx = {
    h : int array;  (* chaining state *)
    buffer : Bytes.t;  (* partial block *)
    w : int array;  (* preallocated message schedule *)
    mutable buffered : int;
    mutable total_bytes : int;
    mutable compressions : int;
    mutable finalized : bool;
  }

  let init () =
    {
      h = Array.copy C.iv;
      buffer = Bytes.make block_size '\000';
      w = Array.make C.schedule_words 0;
      buffered = 0;
      total_bytes = 0;
      compressions = 0;
      finalized = false;
    }

  let copy ctx =
    {
      ctx with
      h = Array.copy ctx.h;
      buffer = Bytes.copy ctx.buffer;
      w = Array.make C.schedule_words 0;
    }

  let compress ctx block pos =
    let w = ctx.w in
    for i = 0 to 15 do
      let o = pos + (i lsl 2) in
      Array.unsafe_set w i
        ((Char.code (Bytes.unsafe_get block o) lsl 24)
        lor (Char.code (Bytes.unsafe_get block (o + 1)) lsl 16)
        lor (Char.code (Bytes.unsafe_get block (o + 2)) lsl 8)
        lor Char.code (Bytes.unsafe_get block (o + 3)))
    done;
    C.compress ctx.h w;
    ctx.compressions <- ctx.compressions + 1;
    Atomic.incr global_compressions;
    incr (Domain.DLS.get domain_compressions_key)

  let feed_sub ctx data ~pos ~len =
    if ctx.finalized then invalid_arg (C.name ^ ".feed: context already finalized");
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg (C.name ^ ".feed_sub: bad range");
    ctx.total_bytes <- ctx.total_bytes + len;
    let consumed = ref 0 in
    (* Top up a partial block first. *)
    if ctx.buffered > 0 then begin
      let take = min len (block_size - ctx.buffered) in
      Bytes.blit data pos ctx.buffer ctx.buffered take;
      ctx.buffered <- ctx.buffered + take;
      consumed := take;
      if ctx.buffered = block_size then begin
        compress ctx ctx.buffer 0;
        ctx.buffered <- 0
      end
    end;
    (* Whole blocks straight from the input. *)
    while len - !consumed >= block_size do
      compress ctx data (pos + !consumed);
      consumed := !consumed + block_size
    done;
    (* Buffer the tail. *)
    let tail = len - !consumed in
    if tail > 0 then begin
      Bytes.blit data (pos + !consumed) ctx.buffer ctx.buffered tail;
      ctx.buffered <- ctx.buffered + tail
    end

  let feed ctx data = feed_sub ctx data ~pos:0 ~len:(Bytes.length data)

  let finalize ctx =
    if ctx.finalized then invalid_arg (C.name ^ ".finalize: already finalized");
    let bit_length = ctx.total_bytes * 8 in
    let pad_len =
      let rem = (ctx.total_bytes + 1) mod block_size in
      if rem <= 56 then 56 - rem + 1 else block_size - rem + 56 + 1
    in
    let padding = Bytes.make (pad_len + 8) '\000' in
    Bytes.set padding 0 '\x80';
    Bytes.set_int64_be padding pad_len (Int64.of_int bit_length);
    (* Bypass the total-bytes update: padding is not message data. *)
    let saved_total = ctx.total_bytes in
    feed ctx padding;
    ctx.total_bytes <- saved_total;
    ctx.finalized <- true;
    let out = Bytes.create digest_size in
    Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
    out

  let digest data =
    let ctx = init () in
    feed ctx data;
    finalize ctx

  let digest_string s = digest (Bytes.of_string s)
  let compression_count ctx = ctx.compressions
  let total_compressions () = Atomic.get global_compressions
  let domain_compressions () = !(Domain.DLS.get domain_compressions_key)

  let to_hex b =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (Bytes.to_seq b)))
end
