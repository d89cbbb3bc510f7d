(* One round of a workload: set-up, then a fixed, seed-determined amount
   of work driven step by step.  A run repeats rounds on the same inputs
   until its time is up, so every round of a run must produce the same
   simulated results — the digest proves it. *)

type t = {
  setup : int;  (** host ns from round start to the first timed call *)
  body : int;  (** host ns from the first timed call to the last *)
  steps : int array;  (** host ns of each step the benchmark drove *)
  ops : int;  (** operations completed *)
  attempted : int;  (** operations attempted *)
  failed : int;
      (** operations that failed by the workload's definition (a missed
          activation, a refused load, a shed arrival, ...) *)
  violations : (int * string) list;
      (** correctness-check failures: an invariant the program must keep
          did not hold, with the operation it broke *)
  sim : (string * float) list;  (** simulated results, exact for a seed *)
  counts : (string * float) list;  (** per-layer counts for this round *)
  digest : string;  (** every simulated observable, for identity checks *)
  slot_ns : (string * int * int) list;
      (** host self time and calls per accounting slot over the body *)
}

(* A violation log shared by a round's checks. *)
type checks = { mutable log : (int * string) list }

let new_checks () = { log = [] }

(* [check c ~op cond what] records a violation of [what] unless [cond];
   returns [cond] so callers can count the operation as failed. *)
let check c ~op cond what =
  if not cond then c.log <- (op, what) :: c.log;
  cond

let violated_ops r = List.length (List.sort_uniq compare (List.map fst r.violations))

(* Run [f] as one step: host time is recorded in [acc]. *)
let timed acc f =
  let t0 = Prof.now_ns () in
  let v = f () in
  acc := (Prof.now_ns () - t0) :: !acc;
  v

let digest_of fields =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) fields)))

(* Nearest-rank percentile of a sorted array, p in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_floats l) 50.

(* The tail percentile a report may claim over [n] samples: the highest
   rung of the ladder that leaves at least ten samples beyond it. *)
let tail_rung n =
  let ladder = [ 99.9; 99.5; 99.; 95.; 90.; 75.; 50. ] in
  match
    List.find_opt
      (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10.)
      ladder
  with
  | Some p -> p
  | None -> 50.
