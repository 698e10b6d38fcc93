(** Role-agnostic serving core: the accept/IO-loop/drain machinery
    shared by the replica role ({!Server}) and the sharded tier's router
    ([Stt_shard.Router]).

    The core moves frames; a {e role} decides what they mean.  On every
    decoded request the core calls the role's [handle] callback (on the
    IO domain, so it must not block); the role replies inline with
    {!reply} or defers work to the worker-domain pool with {!enqueue}.
    Role state lives in the closures the role passes to {!start} — the
    core holds none of it.

    Threading contract (inherited by both roles):
    - the IO domain owns the event loop, read buffers, and fd teardown;
    - jobs run on worker domains and may call {!reply} freely (writes
      are serialized per connection; refused bytes are stashed and
      flushed by the IO domain on writability);
    - {!stop} begins a graceful drain: no new connections or reads,
      queued jobs still run and their responses are flushed, then
      {!wait} joins every domain. *)

type t
(** A running core (listening socket + IO domain + worker pool). *)

type conn
(** One accepted connection.  Valid for the connection's lifetime; after
    the peer disappears, {!reply} on it is a silent no-op. *)

type stats = {
  connections : int;  (** accepted over the lifetime *)
  received : int;  (** Answer/Update requests seen (role-counted) *)
  answered : int;
  updated : int;
  rejected_overload : int;
  rejected_deadline : int;
  bad_requests : int;  (** undecodable frames, bad hellos, handler errors *)
}

val start :
  ?host:string ->
  port:int ->
  workers:int ->
  queue_capacity:int ->
  ?io_backend:Evloop.backend ->
  (t -> conn -> now:float -> Frame.request -> unit) ->
  t
(** [start ~port ~workers ~queue_capacity handle] binds (port [0] picks
    an ephemeral port — read it back with {!port}), spawns the worker
    pool and the IO domain, and calls [handle core conn ~now req] on the
    IO domain for every request decoded off a connection.  [now] is the
    monotonic time ({!Mono.now_s}) at decode time: request deadlines
    ([deadline_us] is relative to receipt) are computed and checked on
    that clock, so a wall-clock step cannot expire or extend them.

    Raises [Invalid_argument] on a non-positive [workers] or
    [queue_capacity]; [Unix.Unix_error] if the bind fails. *)

(** {1 Introspection} *)

val port : t -> int
val io_backend : t -> string
val workers : t -> int
val queue_capacity : t -> int

val queue_depth : t -> int
(** Jobs waiting in the bounded queue right now (protocol v5 Health). *)

val uptime_ns : t -> int
(** Monotonic nanoseconds since {!start} (protocol v5 Health) — never
    goes backwards, so a router polling it detects restarts. *)

val stats : t -> stats

(** {1 Role surface} *)

val reply : t -> conn -> Frame.response -> unit
(** Encode into the calling domain's scratch buffer and write (or stash)
    the frame.  Callable from any domain; serialized per connection. *)

val enqueue : t -> (unit -> unit) -> bool
(** Push a job for the worker pool; [false] means the bounded queue is
    full and the role should shed ([Rejected Overloaded]).  A job that
    raises kills its worker domain — roles catch their own errors. *)

val with_obs : t -> (unit -> 'a) -> 'a
(** Run under the core's shared Obs context (serialized) — roles adopt
    finished per-job contexts and bump role metrics through this. *)

val trace_json : t -> string
(** The shared context's [Obs.trace], serialized. *)

(** {1 Role counters}

    The core counts connections and undecodable frames itself; what a
    {e valid} request amounts to is role logic, so roles bump these. *)

val note_received : t -> unit
val note_answered : t -> unit
val note_updated : t -> unit
val note_overload : t -> unit
val note_deadline : t -> unit
val note_bad : t -> unit

(** {1 Lifecycle} *)

val stop : t -> unit
(** Begin graceful drain (idempotent, signal-safe). *)

val stopping : t -> bool

val wait : t -> stats
(** Join the IO domain and workers, close every connection, and return
    the final counters.  Call after {!stop}. *)
