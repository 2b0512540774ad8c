(** Length- and digest-framed binary blobs, and the one decoder for
    marshaled values read back from disk.

    Every persistent format ([Objfile] object files, [Ccache] entries
    and packs, [Engine] and server checkpoints) marshals OCaml values,
    and [Marshal.from_*] is not safe on corrupted input — it can crash
    the process.  So every blob on disk is framed as

      magic ++ length (8 bytes LE) ++ MD5 digest (16 bytes) ++ payload

    and the reader verifies the frame end-to-end before any payload
    byte is parsed.  Truncation, bit flips, and foreign files all
    surface as [Error] here, never as an escaped exception. *)

(* Sanity cap: no checkpoint or object file is anywhere near 1 GiB; a
   larger claimed length is a corrupt or hostile frame. *)
let max_blob = 1 lsl 30

let write_framed oc ~magic payload =
  output_string oc magic;
  let hdr = Bytes.create 8 in
  Bytes.set_int64_le hdr 0 (Int64.of_int (String.length payload));
  output_bytes oc hdr;
  output_string oc (Digest.string payload);
  output_string oc payload

let read_framed ic ~magic : (string, string) result =
  match really_input_string ic (String.length magic) with
  | exception End_of_file -> Error "truncated header"
  | m when not (String.equal m magic) ->
      Error (Printf.sprintf "bad magic %S (want %S)" m magic)
  | _ -> (
      match really_input_string ic 8 with
      | exception End_of_file -> Error "truncated length field"
      | lenb -> (
          let len = Int64.to_int (String.get_int64_le lenb 0) in
          if len < 0 || len > max_blob then
            Error (Printf.sprintf "implausible payload length %d" len)
          else
            match really_input_string ic 16 with
            | exception End_of_file -> Error "truncated digest"
            | digest -> (
                match really_input_string ic len with
                | exception End_of_file ->
                    Error
                      (Printf.sprintf "truncated payload (want %d bytes)" len)
                | payload ->
                    if not (String.equal (Digest.string payload) digest) then
                      Error "payload digest mismatch (corrupt file)"
                    else Ok payload)))

(** Decode a payload that passed the frame check.  The digest proves
    only that the bytes are the ones written: a hand-built file can carry
    a self-consistent digest over bytes that are not a marshaled value,
    which [Marshal.from_string] rejects by raising. *)
let unmarshal (payload : string) : ('a, string) result =
  match Marshal.from_string payload 0 with
  | v -> Ok v
  | exception _ -> Error "payload does not unmarshal"

let write_value oc ~magic v = write_framed oc ~magic (Marshal.to_string v [])

let read_value ic ~magic : ('a, string) result =
  Result.bind (read_framed ic ~magic) unmarshal

(** {!read_value} from the file at [path]. *)
let load_value ~magic path : ('a, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot open (%s)" msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> read_value ic ~magic)
