type error =
  | Io_error of string
  | Bad_magic
  | Version_skew of { found : int; expected : int }
  | Truncated of string
  | Checksum_mismatch of string
  | Missing_section of string
  | Malformed of string

let error_to_string = function
  | Io_error msg -> "io error: " ^ msg
  | Bad_magic -> "not a snapshot file (bad magic)"
  | Version_skew { found; expected } ->
      Printf.sprintf "snapshot format version %d, this build expects %d" found
        expected
  | Truncated ctx -> "truncated snapshot: " ^ ctx
  | Checksum_mismatch name ->
      Printf.sprintf "checksum mismatch in section %S" name
  | Missing_section name -> Printf.sprintf "missing section %S" name
  | Malformed ctx -> "malformed snapshot: " ^ ctx

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let magic = "\x89STTSNAP"
let sect_marker = 0x53 (* 'S' *)
let end_marker = 0x45 (* 'E' *)

(* Atomic replacement: every write goes to a temp file beside the
   destination, is fsynced, then renamed over it — a crash or error
   mid-write leaves the previous file intact and no temp file behind. *)
let tmp_of path = path ^ ".tmp"

let commit oc ~tmp ~dst =
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error (e, fn, _) ->
     raise (Sys_error (fn ^ ": " ^ Unix.error_message e)));
  close_out oc;
  Sys.rename tmp dst

let discard oc ~tmp =
  close_out_noerr oc;
  try Sys.remove tmp with Sys_error _ -> ()

module Writer = struct
  type t = { oc : out_channel; mutable bytes : int; tmp : string; dst : string }

  let emit t s =
    output_string t.oc s;
    t.bytes <- t.bytes + String.length s

  let create ~version path =
    let tmp = tmp_of path in
    match open_out_bin tmp with
    | exception Sys_error msg -> Error (Io_error msg)
    | oc ->
        let t = { oc; bytes = 0; tmp; dst = path } in
        let header = Codec.encoder () in
        Codec.write_u32 header version;
        emit t magic;
        emit t (Codec.contents header);
        Ok t

  let section t name f =
    let payload = Codec.encoder () in
    f payload;
    let payload = Codec.contents payload in
    let frame = Codec.encoder () in
    Codec.write_u8 frame sect_marker;
    Codec.write_string frame name;
    Codec.write_uint frame (String.length payload);
    emit t (Codec.contents frame);
    emit t payload;
    let crc = Codec.encoder () in
    Codec.write_u32 crc (Crc32.string payload);
    emit t (Codec.contents crc)

  let close t =
    let fin = Codec.encoder () in
    Codec.write_u8 fin end_marker;
    emit t (Codec.contents fin);
    match commit t.oc ~tmp:t.tmp ~dst:t.dst with
    | () -> Ok t.bytes
    | exception Sys_error msg ->
        discard t.oc ~tmp:t.tmp;
        Error (Io_error msg)
end

let write ~version path sections =
  match Writer.create ~version path with
  | Error _ as e -> e
  | Ok w -> (
      match
        List.iter (fun (name, f) -> Writer.section w name f) sections
      with
      | () -> Writer.close w
      | exception e ->
          discard w.Writer.oc ~tmp:w.Writer.tmp;
          raise e)

module Reader = struct
  type t = { sections : (string * string) list; bytes : int }

  let read_file path =
    match open_in_bin path with
    | exception Sys_error msg -> Error (Io_error msg)
    | ic ->
        let r =
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error msg -> Error (Io_error msg)
          | exception End_of_file -> Error (Truncated "file shrank while reading")
        in
        close_in_noerr ic;
        r

  let parse ~version src =
    let len = String.length src in
    if len < String.length magic then Error (Truncated "header")
    else if String.sub src 0 (String.length magic) <> magic then
      Error Bad_magic
    else
      (* skip the magic, then walk the framing with the codec decoder *)
      let d =
        Codec.decoder
          (String.sub src (String.length magic) (len - String.length magic))
      in
      match
        let found = Codec.read_u32 d in
        if found <> version then Error (Version_skew { found; expected = version })
        else
          let sections = ref [] in
          let rec loop () =
            match Codec.read_u8 d with
            | m when m = end_marker ->
                if Codec.remaining d <> 0 then
                  Error (Malformed "bytes after end marker")
                else Ok { sections = List.rev !sections; bytes = len }
            | m when m = sect_marker ->
                let name = Codec.read_string d in
                let plen = Codec.read_uint d in
                if plen > Codec.remaining d then
                  Error (Truncated (Printf.sprintf "section %S payload" name))
                else begin
                  let payload = Codec.read_bytes d plen in
                  let crc = Codec.read_u32 d in
                  if Crc32.string payload <> crc then
                    Error (Checksum_mismatch name)
                  else begin
                    sections := (name, payload) :: !sections;
                    loop ()
                  end
                end
            | m -> Error (Malformed (Printf.sprintf "unknown marker 0x%02x" m))
          in
          loop ()
      with
      | r -> r
      | exception Codec.Short ctx -> Error (Truncated ctx)
      | exception Codec.Corrupt ctx -> Error (Malformed ctx)

  let load ~version path =
    match read_file path with
    | Error _ as e -> e
    | Ok src -> parse ~version src

  let section_names t = List.map fst t.sections
  let bytes t = t.bytes

  let section t name f =
    match List.assoc_opt name t.sections with
    | None -> Error (Missing_section name)
    | Some payload -> (
        let d = Codec.decoder payload in
        match
          let v = f d in
          Codec.expect_end d ("section " ^ name);
          v
        with
        | v -> Ok v
        | exception Codec.Short ctx ->
            Error (Truncated (Printf.sprintf "section %S: %s" name ctx))
        | exception Codec.Corrupt ctx ->
            Error (Malformed (Printf.sprintf "section %S: %s" name ctx)))
end

(* Snapshot shipping: the replication primitive of the sharded tier.
   Build once, ship bytes to each replica — the copy is validated
   section by section (magic, framing, every CRC) before it lands, at
   whatever format version the file declares (shipping is transport, not
   interpretation: the replica's [load] still enforces its own version),
   and written atomically (tmp + fsync + rename) so a replica never boots from a
   torn file. *)
let ship ~src ~dst =
  match Reader.read_file src with
  | Error _ as e -> e
  | Ok blob -> (
      if String.length blob < String.length magic + 4 then
        Error (Truncated "header")
      else if String.sub blob 0 (String.length magic) <> magic then
        Error Bad_magic
      else
        let declared =
          Codec.read_u32 (Codec.decoder (String.sub blob (String.length magic) 4))
        in
        match Reader.parse ~version:declared blob with
        | Error _ as e -> e
        | Ok _ -> (
            let tmp = tmp_of dst in
            match open_out_bin tmp with
            | exception Sys_error msg -> Error (Io_error msg)
            | oc -> (
                match
                  output_string oc blob;
                  commit oc ~tmp ~dst
                with
                | () -> Ok (String.length blob)
                | exception Sys_error msg ->
                    discard oc ~tmp;
                    Error (Io_error msg))))
