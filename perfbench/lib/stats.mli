(** Latency summaries and operation accounting. *)

val tail_permille : int -> int option
(** [tail_permille n] is the highest of p99.9, p99, p95, p90, p75 and
    p50 (in per-mille) with at least ten of [n] samples beyond its
    nearest-rank position; [None] when even the median has fewer than
    ten beyond it. *)

type summary = {
  n : int;  (** sample count *)
  p50 : float;
  p95 : float;  (** always the p95, whatever the sample count *)
  p99 : float;
  tail_pm : int option;
      (** percentile [p99] really is, in per-mille: 990 with enough
          samples, a lower rung of {!tail_permille} otherwise, [None] (the
          maximum) below twenty samples *)
  mean : float;
}

val summarize : float list -> summary
(** Nearest-rank percentiles; all fields 0 for no samples. *)

val median : float list -> float

type tally = private {
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
}
(** Operation accounting: [attempted = completed + failed] once every
    attempted operation has ended. *)

val tally : unit -> tally
val attempt : tally -> unit
val complete : tally -> unit
val fail : tally -> unit

val balanced : tally -> bool
val failed_share : tally -> float
