(* Latency summaries and operation accounting shared by every workload. *)

(* Candidate tail percentiles in per-mille, highest first. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]
let min_beyond = 10

(* Nearest-rank position (1-based) of the [pm]-per-mille percentile. *)
let rank ~n pm = ((pm * n) + 999) / 1000

let tail_permille n =
  List.find_opt (fun pm -> n - rank ~n pm >= min_beyond) ladder

let at sorted pm =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(max 0 (rank ~n pm - 1))

type summary = {
  n : int;
  p50 : float;
  p95 : float;
  p99 : float;
  tail_pm : int option;
      (** percentile [p99] actually reports: 990 when at least ten samples
          lie beyond p99, else the highest rung of {!ladder} that has
          them; [None] below twenty samples, where [p99] is the max *)
  mean : float;
}

let summarize samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let tail_pm =
    match tail_permille n with
    | Some pm when pm >= 990 -> Some 990
    | t -> t
  in
  let p99 =
    match tail_pm with
    | Some pm -> at a pm
    | None -> if n = 0 then 0.0 else a.(n - 1)
  in
  let mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n
  in
  { n; p50 = at a 500; p95 = at a 950; p99; tail_pm; mean }

let median xs = (summarize xs).p50

(* Every operation is attempted once and ends either completed or
   failed. *)
type tally = { mutable attempted : int; mutable completed : int; mutable failed : int }

let tally () = { attempted = 0; completed = 0; failed = 0 }
let attempt t = t.attempted <- t.attempted + 1
let complete t = t.completed <- t.completed + 1
let fail t = t.failed <- t.failed + 1

let balanced t = t.attempted = t.completed + t.failed

let failed_share t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted
