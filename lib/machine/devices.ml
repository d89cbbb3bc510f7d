module Timer = struct
  type t = {
    engine : Exception_engine.t;
    clock : Cycles.t;
    irq : int;
    period : int;
    mutable next_deadline : int;
    mutable enabled : bool;
    mutable fired : int;
  }

  let create engine clock ~irq ~period =
    if period <= 0 then invalid_arg "Timer.create: period must be positive";
    {
      engine;
      clock;
      irq;
      period;
      next_deadline = Cycles.now clock + period;
      enabled = true;
      fired = 0;
    }

  let poll t =
    if t.enabled && Cycles.now t.clock >= t.next_deadline then begin
      Exception_engine.raise_irq t.engine t.irq;
      t.fired <- t.fired + 1;
      (* Catch up without raising a burst of back-to-back IRQs: a real tick
         timer latches one pending interrupt however late it is served. *)
      let now = Cycles.now t.clock in
      let missed = (now - t.next_deadline) / t.period in
      t.next_deadline <- t.next_deadline + ((missed + 1) * t.period)
    end

  let period t = t.period
  let enable t = t.enabled <- true
  let disable t = t.enabled <- false
  let fired t = t.fired
end

module Sensor = struct
  type t = {
    name : string;
    base : Word.t;
    clock : Cycles.t;
    sample : cycles:int -> Word.t;
    mutable reads : int;
  }

  let create ~name ~base ~clock ~sample =
    { name; base; clock; sample; reads = 0 }

  let device t =
    {
      Memory.name = t.name;
      base = t.base;
      size = 4;
      read32 =
        (fun ~offset:_ ->
          t.reads <- t.reads + 1;
          Word.of_int (t.sample ~cycles:(Cycles.now t.clock)));
      write32 = (fun ~offset:_ _ -> ());
    }

  let reads t = t.reads
  let reset_reads t = t.reads <- 0
end

module Rx_fifo = struct
  type t = {
    engine : Exception_engine.t;
    name : string;
    base : Word.t;
    irq : int;
    capacity : int;
    mutable frames : Word.t list;  (* head = oldest *)
    mutable dropped : int;
    mutable received : int;
  }

  let create engine ~name ~base ~irq ~capacity =
    if capacity <= 0 then invalid_arg "Rx_fifo.create: capacity must be positive";
    { engine; name; base; irq; capacity; frames = []; dropped = 0; received = 0 }

  let pending t = List.length t.frames

  let pop t =
    match t.frames with
    | [] -> 0
    | frame :: rest ->
        t.frames <- rest;
        frame

  let device t =
    {
      Memory.name = t.name;
      base = t.base;
      size = 8;
      read32 = (fun ~offset -> if offset = 0 then pending t else pop t);
      write32 = (fun ~offset:_ _ -> ());
    }

  let inject t frame =
    if pending t >= t.capacity then begin
      t.dropped <- t.dropped + 1;
      false
    end
    else begin
      t.frames <- t.frames @ [ frame ];
      t.received <- t.received + 1;
      Exception_engine.raise_irq t.engine t.irq;
      true
    end

  let dropped t = t.dropped
  let received t = t.received
  let irq t = t.irq
end

module Watchdog = struct
  type t = {
    engine : Exception_engine.t;
    clock : Cycles.t;
    name : string;
    base : Word.t;
    irq : int;
    mutable timeout : int;
    mutable deadline : int;
    mutable enabled : bool;
    mutable fired : int;
  }

  let create engine clock ~name ~base ~irq ~timeout =
    if timeout <= 0 then invalid_arg "Watchdog.create: timeout must be positive";
    {
      engine;
      clock;
      name;
      base;
      irq;
      timeout;
      deadline = Cycles.now clock + timeout;
      enabled = true;
      fired = 0;
    }

  let kick t = t.deadline <- Cycles.now t.clock + t.timeout

  let set_timeout t timeout =
    if timeout <= 0 then invalid_arg "Watchdog.set_timeout: timeout must be positive";
    t.timeout <- timeout;
    kick t

  let enable t =
    t.enabled <- true;
    kick t

  let disable t = t.enabled <- false

  let remaining t =
    if not t.enabled then 0 else max 0 (t.deadline - Cycles.now t.clock)

  let poll t =
    if t.enabled && Cycles.now t.clock >= t.deadline then begin
      Exception_engine.raise_irq t.engine t.irq;
      t.fired <- t.fired + 1;
      (* Re-arm one whole interval from now: a late-served bite still
         latches exactly one IRQ. *)
      t.deadline <- Cycles.now t.clock + t.timeout
    end

  let device t =
    {
      Memory.name = t.name;
      base = t.base;
      size = 12;
      read32 =
        (fun ~offset ->
          match offset with
          | 0 -> remaining t
          | 4 -> t.timeout
          | _ -> t.fired);
      write32 =
        (fun ~offset v ->
          match offset with
          | 0 -> kick t
          | 4 -> if v > 0 then set_timeout t v
          | _ -> if v land 1 = 1 then enable t else disable t);
    }

  let timeout t = t.timeout
  let fired t = t.fired
  let irq t = t.irq
end

module Pmu = struct
  type t = {
    name : string;
    base : Word.t;
    clock : Cycles.t;
    instructions : unit -> int;
    context_switches : unit -> int;
    read_cost : int;
    mutable reads : int;
  }

  let create clock ~name ~base ~read_cost ~instructions ~context_switches =
    { name; base; clock; instructions; context_switches; read_cost; reads = 0 }

  let size = 24

  let device t =
    {
      Memory.name = t.name;
      base = t.base;
      size;
      read32 =
        (fun ~offset ->
          (* Reading a counter is itself a bus transaction with a cost —
             charged before sampling, so CYCLES_* includes this read. *)
          Cycles.charge t.clock t.read_cost;
          t.reads <- t.reads + 1;
          match offset with
          | 0 -> Cycles.now t.clock land 0xFFFF_FFFF
          | 4 -> (Cycles.now t.clock lsr 32) land 0xFFFF_FFFF
          | 8 -> t.instructions () land 0xFFFF_FFFF
          | 12 -> (t.instructions () lsr 32) land 0xFFFF_FFFF
          | 16 -> t.context_switches () land 0xFFFF_FFFF
          | _ -> t.reads land 0xFFFF_FFFF);
      write32 = (fun ~offset:_ _ -> ());
    }

  let reads t = t.reads
end

module Monotonic_counter = struct
  type t = {
    name : string;
    base : Word.t;
    clock : Cycles.t;
    read_cost : int;
    increment_cost : int;
    mutable value : int;
    mutable increments : int;
    mutable reset_attempts : int;
  }

  let create clock ~name ~base ~read_cost ~increment_cost ?(initial = 0) () =
    if initial < 0 then
      invalid_arg "Monotonic_counter.create: initial must be non-negative";
    {
      name;
      base;
      clock;
      read_cost;
      increment_cost;
      value = initial;
      increments = 0;
      reset_attempts = 0;
    }

  let value t = t.value

  let increment t =
    (* Each tick is a separate NV write — slow and individually charged,
       which is why bulk advances (catching a counter up to a firmware
       version) cost proportionally. *)
    Cycles.charge t.clock t.increment_cost;
    t.value <- t.value + 1;
    t.increments <- t.increments + 1;
    t.value

  let advance_to t target =
    while t.value < target do
      ignore (increment t)
    done;
    t.value

  let increments t = t.increments
  let reset_attempts t = t.reset_attempts

  let save t =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int t.value);
    b

  let restore t blob =
    if Bytes.length blob <> 4 then Error "monotonic counter: bad snapshot"
    else
      let v = Int32.to_int (Bytes.get_int32_be blob 0) in
      if v < 0 then Error "monotonic counter: bad snapshot"
      else begin
        (* Restoring can only move forward: replaying an old snapshot is
           exactly the rollback the counter exists to refuse. *)
        if v > t.value then t.value <- v else if v < t.value then
          t.reset_attempts <- t.reset_attempts + 1;
        Ok ()
      end

  let size = 12

  let device t =
    {
      Memory.name = t.name;
      base = t.base;
      size;
      read32 =
        (fun ~offset ->
          Cycles.charge t.clock t.read_cost;
          match offset with
          | 0 -> t.value land 0xFFFF_FFFF
          | 4 -> t.increments land 0xFFFF_FFFF
          | _ -> t.reset_attempts land 0xFFFF_FFFF);
      write32 =
        (fun ~offset v ->
          match offset with
          | 0 ->
              (* The value register is read-only in hardware; a write is
                 a tamper attempt, counted and refused. *)
              t.reset_attempts <- t.reset_attempts + 1
          | 4 -> ignore (increment t)
          | _ -> if v < t.value then t.reset_attempts <- t.reset_attempts + 1);
    }
end

module Console = struct
  type t = { base : Word.t; buffer : Buffer.t }

  let create ~base = { base; buffer = Buffer.create 64 }

  let device t =
    {
      Memory.name = "console";
      base = t.base;
      size = 4;
      read32 = (fun ~offset:_ -> 0);
      write32 =
        (fun ~offset:_ v -> Buffer.add_char t.buffer (Char.chr (v land 0xFF)));
    }

  let contents t = Buffer.contents t.buffer
  let clear t = Buffer.clear t.buffer
end
