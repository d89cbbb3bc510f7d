let priority_levels = 8

type t = {
  ready : Tcb.t list array;  (* FIFO: head = next to run; stored in order *)
  mutable current : Tcb.t option;
  mutable delayed : Tcb.t list;  (* sorted by wake_tick ascending *)
  mutable ticks : int;
  clock : Tytan_machine.Cycles.t option;
}

(* The ready lists are short (a handful of tasks per level on an MCU), so
   plain lists with append keep the code obvious. *)

let create ?clock () =
  {
    ready = Array.make priority_levels [];
    current = None;
    delayed = [];
    ticks = 0;
    clock;
  }

let tick_count t = t.ticks
let advance_tick t = t.ticks <- t.ticks + 1
let current t = t.current
let set_current t c = t.current <- c

let check_priority p =
  if p < 0 || p >= priority_levels then
    invalid_arg (Printf.sprintf "Scheduler: priority %d out of range" p)

let add_ready t (tcb : Tcb.t) =
  check_priority tcb.priority;
  tcb.state <- Tcb.Ready;
  (* Stamp when the wait began; the kernel's dispatch path turns this
     into the ready-queue wait histogram. *)
  tcb.ready_since <-
    (match t.clock with
    | Some clock -> Tytan_machine.Cycles.now clock
    | None -> -1);
  t.ready.(tcb.priority) <- t.ready.(tcb.priority) @ [ tcb ]

let remove t (tcb : Tcb.t) =
  let not_this other = other.Tcb.id <> tcb.Tcb.id in
  for p = 0 to priority_levels - 1 do
    t.ready.(p) <- List.filter not_this t.ready.(p)
  done;
  t.delayed <- List.filter not_this t.delayed

let pick t =
  let rec scan p =
    if p < 0 then None
    else
      match t.ready.(p) with
      | tcb :: _ -> Some tcb
      | [] -> scan (p - 1)
  in
  scan (priority_levels - 1)

let take t =
  match pick t with
  | None -> None
  | Some tcb ->
      (match t.ready.(tcb.priority) with
      | _ :: rest -> t.ready.(tcb.priority) <- rest
      | [] -> assert false);
      Some tcb

let rotate t ~priority =
  check_priority priority;
  match t.ready.(priority) with
  | [] | [ _ ] -> ()
  | head :: rest -> t.ready.(priority) <- rest @ [ head ]

let sleep_on t (tcb : Tcb.t) ~wake_tick ~reason =
  tcb.state <- Tcb.Blocked reason;
  tcb.wake_tick <- wake_tick;
  let before other = other.Tcb.wake_tick <= wake_tick in
  let earlier, later = List.partition before t.delayed in
  t.delayed <- earlier @ (tcb :: later)

let delay_until t tcb ~wake_tick =
  sleep_on t tcb ~wake_tick ~reason:(Tcb.Delayed_until wake_tick)

let wake_due t =
  let due, remaining =
    List.partition (fun tcb -> tcb.Tcb.wake_tick <= t.ticks) t.delayed
  in
  t.delayed <- remaining;
  due

let ready_count t =
  Array.fold_left (fun n l -> n + List.length l) 0 t.ready

let all_tasks t =
  let ready = Array.to_list t.ready |> List.concat in
  ready @ t.delayed
  @ (match t.current with Some c -> [ c ] | None -> [])

let pp ppf t =
  Format.fprintf ppf "@[<v>tick=%d" t.ticks;
  (match t.current with
  | Some c -> Format.fprintf ppf "@ running: %a" Tcb.pp c
  | None -> Format.fprintf ppf "@ running: (none)");
  Array.iteri
    (fun p tasks ->
      if tasks <> [] then begin
        Format.fprintf ppf "@ prio %d:" p;
        List.iter (fun tcb -> Format.fprintf ppf " %s" tcb.Tcb.name) tasks
      end)
    t.ready;
  if t.delayed <> [] then begin
    Format.fprintf ppf "@ delayed:";
    List.iter
      (fun tcb -> Format.fprintf ppf " %s@%d" tcb.Tcb.name tcb.Tcb.wake_tick)
      t.delayed
  end;
  Format.fprintf ppf "@]"
