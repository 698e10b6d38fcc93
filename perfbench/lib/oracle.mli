(** Reference answers for the served workloads, memoized per key.

    Each access CQ served here has the access pattern as its head, so a
    request's answer is the request tuple itself or nothing; the
    oracles say which. *)

type reach

val reach : k:int -> Stt_apps.Reach.edges -> reach

val reach_path : reach -> int array -> bool
(** Is there a k-edge walk from [u] to [v] ([[|u; v|]]), by
    {!Stt_apps.Reach.naive}. *)

val reach_count : reach -> int array -> int
(** Number of k-edge walks from [u] to [v], by
    {!Stt_apps.Reach.naive_count}. *)

type live
(** A mutable edge set, replayed in the order a churn stream applies its
    deltas. *)

val live : (int * int) list -> live
val live_edges : live -> (int * int) list

val apply : live -> int * int -> add:bool -> bool
(** Insert or delete an edge; whether the delta changed the set. *)

val live_path : live -> k:int -> int array -> bool
(** {!reach_path} over the current edge set. *)
