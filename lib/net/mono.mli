(** Monotonic clock (CLOCK_MONOTONIC via a C stub).

    Protocol v5 [Health] replies carry the serving process's uptime in
    monotonic nanoseconds; a router detects a restarted shard by the
    uptime going backwards between polls.  Wall clocks cannot do this —
    they step under NTP. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed point (process-independent
    epoch, never goes backwards). *)

val now_s : unit -> float
(** {!now_ns} in seconds: the clock for deadlines, drains and latency
    (a wall-clock step must neither expire queued work nor stretch a
    drain). *)
