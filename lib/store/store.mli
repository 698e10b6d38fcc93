(** Versioned, checksummed snapshot container.

    A snapshot file is a sequence of named sections:

    {v
      magic   8 bytes   "\x89STTSNAP"
      version u32 LE    format version of the writer
      section (repeated)
        0x53 'S'        section marker
        name            varint length + bytes
        payload         varint length + bytes
        crc32           u32 LE, CRC-32 of the payload bytes
      0x45 'E'          end marker
    v}

    The writer streams: each section is buffered, measured, checksummed
    and flushed to the channel before the next one starts, so the whole
    snapshot is never held in memory twice.  The reader validates
    strictly — wrong magic, any version skew, a truncated file, a
    checksum mismatch or trailing garbage all surface as a typed
    {!error}, never as a crash or a silently wrong structure. *)

type error =
  | Io_error of string  (** open/read/write failed (errno message) *)
  | Bad_magic  (** the file does not start with the snapshot magic *)
  | Version_skew of { found : int; expected : int }
      (** written by an incompatible format version *)
  | Truncated of string  (** file ends mid-structure (context) *)
  | Checksum_mismatch of string  (** section payload CRC differs (name) *)
  | Missing_section of string  (** a required section is absent (name) *)
  | Malformed of string
      (** bytes decode to an impossible structure (context) *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

module Writer : sig
  type t

  val create : version:int -> string -> (t, error) result
  (** Open a temp file beside [path] for writing and emit the header;
      [path] itself is untouched until {!close}. *)

  val section : t -> string -> (Codec.encoder -> unit) -> unit
  (** Append one named section whose payload is produced by the
      callback. *)

  val close : t -> (int, error) result
  (** Write the end marker, flush, fsync, close, and rename the temp
      file over [path] — atomically replacing any previous file; returns
      total bytes written.  The writer must not be used afterwards. *)
end

val write : version:int -> string ->
  (string * (Codec.encoder -> unit)) list -> (int, error) result
(** [write ~version path sections] — create, write each section in
    order, close.  The write is atomic: if a section callback raises
    (the exception propagates) or an IO error occurs, the temp file is
    removed and any previous file at [path] is left intact. *)

module Reader : sig
  type t

  val load : version:int -> string -> (t, error) result
  (** Read and validate the whole file: magic, version, section
      framing, every CRC. *)

  val section : t -> string -> (Codec.decoder -> 'a) -> ('a, error) result
  (** Decode one named section.  [Codec.Short]/[Codec.Corrupt] raised
      by the callback (and leftover bytes) are mapped to {!Truncated} /
      {!Malformed}. *)

  val section_names : t -> string list
  (** In file order. *)

  val bytes : t -> int
  (** Total file size in bytes. *)
end

val ship : src:string -> dst:string -> (int, error) result
(** Validate the snapshot at [src] — magic, section framing, every CRC,
    at whatever format version the file declares — and copy it to [dst]
    atomically (tmp file + fsync + rename), returning the bytes shipped.  This
    is the replication primitive of the sharded serving tier: build one
    snapshot, [ship] it to each replica's boot path; a corrupt source
    surfaces as a typed {!error} before any replica sees it, and a
    crashed ship never leaves a torn [dst].  Shipping does not interpret
    the payload, so it forwards snapshots across format versions; the
    consumer's [load] still enforces its own expected version. *)
