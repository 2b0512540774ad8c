(** Durable sessions: the write-ahead request journal and checkpoint
    barrier machinery behind [terra_serve --durable] / [--recover].

    The durability scheme is the classic WAL + checkpoint recipe,
    possible here because the whole serving stack is deterministic (no
    wall clock, no OS randomness — breakers tick a logical clock,
    backoff and allocator jitter are hash-derived):

    + every state-mutating request (a run request or a parse-error
      line, both of which move [served]/tenant/breaker/pool state) is
      appended to the WAL as a [begin] record *before* execution;
    + after execution, an [end] record commits it, carrying the outcome
      and the serving engine's post-request fingerprint;
    + every [interval] committed requests the full server state is
      checkpointed (atomically: temp file + rename) and the WAL rotates
      to a new generation — the *barrier*.  The previous generation is
      kept so a torn checkpoint can degrade one barrier back;
    + recovery loads the newest digest-valid checkpoint, replays the
      committed suffix of the WAL chain (begin+end pairs), discards
      uncommitted begins, and the server verifies recovered engine
      fingerprints against the ones recorded at commit time.

    File layout in the durable directory: [ckpt-%010d] (checkpoint
    taken after committed seq N) and [wal-%010d.log] (requests after
    barrier N).  WAL records are single JSON lines, each sealed with a
    trailing ["md5"] digest of the record-without-seal, so torn or
    flipped tails are detected record-precisely.

    Kill-point chaos: every durable action (WAL append, checkpoint temp
    write, rename, WAL rotate) is one *durability event*; [crash_at]
    raises {!Crashed} at the Nth event, before the action takes effect.
    Since every append is flushed, an in-process abort at event N leaves
    exactly the same bytes on disk as [kill -9] at that point. *)

module Json = Tprof.Json
module Diag = Terra.Diag

(** Simulated crash from [crash_at]: must escape to the top level (the
    CLI exits 137 without draining). *)
exception Crashed of int

type config = {
  dir : string;
  interval : int;  (** committed requests per checkpoint barrier *)
  crash_at : int option;  (** abort before the Nth durability event *)
  on_event : (int -> unit) option;  (** test hook, fired after each event *)
}

let config ?(interval = 32) ?crash_at ?on_event dir =
  { dir; interval = max 1 interval; crash_at; on_event }

type t = {
  cfg : config;
  mutable events : int;  (** durability events so far, this process *)
  mutable seq : int;  (** last assigned request sequence number *)
  mutable committed : int;  (** last committed sequence number *)
  mutable barrier : int;  (** seq of the live checkpoint generation *)
  mutable wal : out_channel;
  mutable checkpoints : int;  (** checkpoints written by this process *)
  mutable replayed : int;  (** committed entries replayed at recovery *)
  mutable recovered_from : int option;  (** barrier recovery loaded *)
}

(* ------------------------------------------------------------------ *)
(* File layout *)

let ( // ) = Filename.concat
let ckpt_name seq = Printf.sprintf "ckpt-%010d" seq
let wal_name seq = Printf.sprintf "wal-%010d.log" seq

(** Generation number of a journal file name, either kind. *)
let gen_of_name f =
  let num prefix suffix =
    let lp = String.length prefix and ls = String.length suffix in
    if
      String.length f = lp + 10 + ls
      && String.sub f 0 lp = prefix
      && String.sub f (lp + 10) ls = suffix
    then int_of_string_opt (String.sub f lp 10)
    else None
  in
  match num "ckpt-" "" with Some g -> Some g | None -> num "wal-" ".log"

let ckpt_magic = "TERRASRV2\n"

(* ------------------------------------------------------------------ *)
(* Durability events *)

let tick t =
  t.events <- t.events + 1;
  match t.cfg.crash_at with
  | Some n when t.events = n -> raise (Crashed n)
  | _ -> ()

let did_event t =
  match t.cfg.on_event with Some f -> f t.events | None -> ()

(* ------------------------------------------------------------------ *)
(* WAL records *)

(* Seal: the record is serialized without the digest, and the digest of
   those bytes becomes the (always-last) "md5" member.  The reader
   re-serializes the parsed record minus the seal — the JSON printer is
   canonical, so the bytes round-trip. *)
let seal fields =
  let body = Json.to_string (Json.Obj fields) in
  Json.Obj
    (fields @ [ ("md5", Json.Str (Digest.to_hex (Digest.string body))) ])

let unseal (j : Json.t) : ((string * Json.t) list, string) result =
  match j with
  | Json.Obj kvs -> (
      match List.rev kvs with
      | ("md5", Json.Str d) :: rev_rest ->
          let fields = List.rev rev_rest in
          let body = Json.to_string (Json.Obj fields) in
          if String.equal d (Digest.to_hex (Digest.string body)) then
            Ok fields
          else Error "record digest mismatch"
      | _ -> Error "record missing md5 seal")
  | _ -> Error "record is not an object"

(* [on_durable] runs once the record bytes are flushed, before the
   event hook fires — bookkeeping tied to the record being on disk
   (like the commit counter) must happen there, so an observer at any
   event boundary sees counters that agree with the file. *)
let append ?(on_durable = fun () -> ()) t fields =
  tick t;
  output_string t.wal (Json.to_string (seal fields));
  output_char t.wal '\n';
  flush t.wal;
  on_durable ();
  did_event t

(** What was journaled for a request: the raw request line (re-parsed
    identically on replay — the parser is pure), or an oversized line
    that was drained and rejected without ever being buffered. *)
type input = Line of string | Oversize of int

(** The admission decision journaled in a run request's [begin] record.
    Under [--workers N] the live decision depends on scheduling (which
    siblings are in flight, which settlements have landed), so replay
    must impose the recorded outcome rather than recompute it.
    [Unrecorded] marks non-run lines and journals written before this
    field existed — those replay through live admission, which is
    deterministic for a single-threaded session. *)
type admission = Unrecorded | Rejected | Granted of int

(** Journal a request before executing it; returns its sequence number.
    [slot] pins the pool slot the request was assigned (recorded so
    replay reproduces the exact engine placement of a parallel run);
    [adm] pins its admission decision. *)
let begin_request ?slot ?(adm = Unrecorded) t (input : input) : int =
  t.seq <- t.seq + 1;
  let payload =
    match input with
    | Line l -> [ ("line", Json.Str l) ]
    | Oversize n -> [ ("oversize", Json.Int n) ]
  in
  let pin =
    (match slot with Some i -> [ ("slot", Json.Int i) ] | None -> [])
    @
    match adm with
    | Unrecorded -> []
    | Rejected -> [ ("grant", Json.Null) ]
    | Granted g -> [ ("grant", Json.Int g) ]
  in
  append t
    ([ ("rec", Json.Str "begin"); ("seq", Json.Int t.seq) ] @ payload @ pin);
  t.seq

(* ------------------------------------------------------------------ *)
(* Checkpoint barriers *)

(** Write a checkpoint of [state ()] for the current committed seq,
    atomically, then rotate the WAL to a new generation and retire
    generations older than the *previous* barrier (so one older barrier
    always survives as the degradation target). *)
let write_checkpoint t ~(state : unit -> string) =
  let final = t.cfg.dir // ckpt_name t.committed in
  let tmp = final ^ ".tmp" in
  tick t;
  let oc = open_out_bin tmp in
  (match Terra.Blobio.write_framed oc ~magic:ckpt_magic (state ()) with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  did_event t;
  tick t;
  Sys.rename tmp final;
  t.checkpoints <- t.checkpoints + 1;
  did_event t;
  tick t;
  close_out t.wal;
  let prev = t.barrier in
  t.barrier <- t.committed;
  t.wal <-
    open_out_gen
      [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      0o644
      (t.cfg.dir // wal_name t.barrier);
  Array.iter
    (fun f ->
      let stale =
        Filename.check_suffix f ".tmp"
        || match gen_of_name f with Some g -> g < prev | None -> false
      in
      if stale && f <> Filename.basename tmp then
        try Sys.remove (t.cfg.dir // f) with Sys_error _ -> ())
    (Sys.readdir t.cfg.dir);
  did_event t

(** Commit a journaled request: outcome, serving slot, and that slot's
    post-request engine fingerprint.  Returns [true] when the barrier
    interval has been reached — the caller decides when to actually take
    the checkpoint, because under [--workers N] the server must first
    quiesce in-flight requests so the snapshot is consistent. *)
let commit_request t ~seq ~outcome ~slot ~fp : bool =
  append t
    ~on_durable:(fun () -> t.committed <- seq)
    [
      ("rec", Json.Str "end");
      ("seq", Json.Int seq);
      ("outcome", Json.Str outcome);
      ("slot", match slot with Some i -> Json.Int i | None -> Json.Null);
      ("fp", match fp with Some s -> Json.Str s | None -> Json.Null);
    ];
  t.committed - t.barrier >= t.cfg.interval

(** Commit and, when the interval is reached, checkpoint immediately —
    the single-threaded composition, where between-requests is always a
    consistent point. *)
let end_request t ~seq ~outcome ~slot ~fp ~(state : unit -> string) =
  if commit_request t ~seq ~outcome ~slot ~fp then write_checkpoint t ~state

(* ------------------------------------------------------------------ *)
(* Session creation *)

(** Open a fresh durable session in [cfg.dir] (created if missing) and
    write the initial barrier.  A directory already holding a journal
    is refused — recovery must be explicit ([--recover]), not a side
    effect of reusing a path. *)
let create (cfg : config) ~(state : unit -> string) : (t, Diag.t) result =
  let existed = Sys.file_exists cfg.dir in
  if existed && not (Sys.is_directory cfg.dir) then
    Error
      (Diag.make ~phase:Diag.Run ~code:"durable.bad-dir"
         (Printf.sprintf "durable path %s is not a directory" cfg.dir))
  else begin
    if not existed then Sys.mkdir cfg.dir 0o755;
    if
      existed
      && Array.exists (fun f -> gen_of_name f <> None) (Sys.readdir cfg.dir)
    then
      Error
        (Diag.make ~phase:Diag.Run ~code:"durable.dir-not-empty"
           (Printf.sprintf
              "durable dir %s already holds a journal; use --recover"
              cfg.dir))
    else begin
      let t =
        {
          cfg;
          events = 0;
          seq = 0;
          committed = 0;
          barrier = 0;
          wal = open_out_bin (cfg.dir // wal_name 0);
          checkpoints = 0;
          replayed = 0;
          recovered_from = None;
        }
      in
      write_checkpoint t ~state;
      Ok t
    end
  end

(* ------------------------------------------------------------------ *)
(* Recovery *)

type committed_entry = {
  ce_seq : int;
  ce_input : input;
  ce_outcome : string;
  ce_slot : int option;  (** from the [end] record, for fp tie-out *)
  ce_fp : string option;
  ce_pin : int option;  (** from the [begin] record: replay slot pin *)
  ce_adm : admission;  (** journaled admission decision to impose *)
}

(** A torn WAL tail: everything before it is trusted, everything at and
    after it is discarded. *)
type torn = { torn_file : string; torn_line : int; torn_reason : string }

type recovered = {
  rc_barrier : int;  (** seq of the checkpoint that was loaded *)
  rc_state : string;  (** the checkpoint payload (marshaled server) *)
  rc_entries : committed_entry list;  (** committed suffix, in order *)
  rc_discarded : int;  (** begun-but-uncommitted requests dropped *)
  rc_torn : torn option;
  rc_skipped : (string * string) list;
      (** newer checkpoints that failed verification: (file, reason) *)
}

let read_ckpt path : (string, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Terra.Blobio.read_framed ic ~magic:ckpt_magic)

(* All complete lines of a WAL file, plus whether an unterminated tail
   fragment followed them (a torn final record). *)
let wal_lines path : string list * bool =
  match open_in_bin path with
  | exception Sys_error _ -> ([], false)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let data = really_input_string ic len in
          let rec split from acc =
            match String.index_from_opt data from '\n' with
            | Some i -> split (i + 1) (String.sub data from (i - from) :: acc)
            | None -> (List.rev acc, from < String.length data)
          in
          split 0 [])

let int_field kvs k =
  match List.assoc_opt k kvs with Some (Json.Int i) -> Some i | _ -> None

let str_field kvs k =
  match List.assoc_opt k kvs with Some (Json.Str s) -> Some s | _ -> None

(* Walk the WAL chain: committed entries in commit order, the count of
   discarded (uncommitted) begins, and the first anomaly as a torn
   tail.  Nothing after an anomaly is trusted.

   Under --workers N up to pool-size+1 requests are journaled before the
   earliest commits, so several begin records may be open at once; ends
   still land in sequence order because the writer domain appends them
   in response order.  The scanner therefore keeps a pending map rather
   than a single open slot, and enforces only what the writer
   guarantees: no duplicate open begins, no begin reusing a committed
   seq, strictly increasing end seqs, every end matching an open
   begin. *)
let scan_wals files : committed_entry list * int * torn option =
  let entries = ref [] in
  let pending : (int, input * int option * admission) Hashtbl.t =
    Hashtbl.create 8
  in
  let last_end = ref min_int in
  let torn = ref None in
  (try
     List.iter
       (fun (file, path) ->
         let lines, ragged = wal_lines path in
         List.iteri
           (fun i line ->
             let fail reason =
               torn :=
                 Some { torn_file = file; torn_line = i + 1; torn_reason = reason };
               raise Exit
             in
             match Json.of_string line with
             | Error msg -> fail ("unparseable record: " ^ msg)
             | Ok j -> (
                 match unseal j with
                 | Error msg -> fail msg
                 | Ok kvs -> (
                     match (str_field kvs "rec", int_field kvs "seq") with
                     | Some "begin", Some seq ->
                         if Hashtbl.mem pending seq then
                           fail "duplicate begin for an open sequence number";
                         if seq <= !last_end then
                           fail "begin record reuses a committed sequence number";
                         let input =
                           match
                             (str_field kvs "line", int_field kvs "oversize")
                           with
                           | Some l, _ -> Line l
                           | None, Some n -> Oversize n
                           | None, None -> fail "begin record without a payload"
                         in
                         let adm =
                           match List.assoc_opt "grant" kvs with
                           | None -> Unrecorded
                           | Some Json.Null -> Rejected
                           | Some (Json.Int g) -> Granted g
                           | Some _ -> fail "begin record grant is malformed"
                         in
                         Hashtbl.replace pending seq
                           (input, int_field kvs "slot", adm)
                     | Some "end", Some seq -> (
                         match Hashtbl.find_opt pending seq with
                         | None -> fail "end record without a matching begin"
                         | Some (input, pin, adm) ->
                             if seq <= !last_end then
                               fail "end records out of order";
                             last_end := seq;
                             Hashtbl.remove pending seq;
                             entries :=
                               {
                                 ce_seq = seq;
                                 ce_input = input;
                                 ce_outcome =
                                   Option.value
                                     (str_field kvs "outcome")
                                     ~default:"error";
                                 ce_slot = int_field kvs "slot";
                                 ce_fp = str_field kvs "fp";
                                 ce_pin = pin;
                                 ce_adm = adm;
                               }
                               :: !entries)
                     | _ -> fail "unknown record type")))
           lines;
         if ragged then begin
           torn :=
             Some
               {
                 torn_file = file;
                 torn_line = List.length lines + 1;
                 torn_reason = "unterminated final record";
               };
           raise Exit
         end)
       files
   with Exit -> ());
  (* only fully journaled begins count as discarded requests; a torn
     record never made it to the journal in the first place *)
  (List.rev !entries, Hashtbl.length pending, !torn)

(** Scan [dir]: newest digest-valid checkpoint, its committed WAL
    suffix, and the recovery report ingredients. *)
let recover_scan ~dir : (recovered, Diag.t) result =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error
      (Diag.make ~phase:Diag.Run ~code:"recover.no-journal"
         (Printf.sprintf
            "%s is not a durable session directory (no such directory); \
             --recover needs a directory a --durable session wrote"
            dir))
  else
    let files = Array.to_list (Sys.readdir dir) in
    if not (List.exists (fun f -> gen_of_name f <> None) files) then
      Error
        (Diag.make ~phase:Diag.Run ~code:"recover.no-journal"
           (Printf.sprintf
              "%s holds no journal (no ckpt-*/wal-*.log files); was this \
               directory written by a --durable session?"
              dir))
    else
    let ckpts =
      List.filter_map
        (fun f ->
          match gen_of_name f with
          | Some g when not (Filename.check_suffix f ".log") -> Some (g, f)
          | _ -> None)
        files
      |> List.sort (fun (a, _) (b, _) -> compare b a)
    in
    let rec choose skipped = function
      | [] ->
          let detail =
            match skipped with
            | [] -> ""
            | l ->
                ": "
                ^ String.concat "; "
                    (List.map (fun (f, why) -> f ^ " (" ^ why ^ ")") l)
          in
          Error
            (Diag.make ~phase:Diag.Run ~code:"recover.no-checkpoint"
               (Printf.sprintf "no loadable checkpoint in %s%s" dir detail))
      | (g, f) :: rest -> (
          match read_ckpt (dir // f) with
          | Error why -> choose (skipped @ [ (f, why) ]) rest
          | Ok blob -> Ok (g, blob, skipped))
    in
    match choose [] ckpts with
    | Error d -> Error d
    | Ok (barrier, blob, skipped) ->
        let wals =
          List.filter_map
            (fun f ->
              match gen_of_name f with
              | Some g when Filename.check_suffix f ".log" && g >= barrier ->
                  Some (g, f)
              | _ -> None)
            files
          |> List.sort compare
          |> List.map (fun (_, f) -> (f, dir // f))
        in
        let entries, discarded, torn = scan_wals wals in
        Ok
          {
            rc_barrier = barrier;
            rc_state = blob;
            rc_entries = entries;
            rc_discarded = discarded;
            rc_torn = torn;
            rc_skipped = skipped;
          }

(** Re-attach a journal to a recovered server: append mode on the old
    generation's WAL until the immediate fresh barrier (written here)
    rotates past it — so a crash during recovery itself leaves the
    directory recoverable exactly as before. *)
let resume (cfg : config) ~(rc : recovered) ~(state : unit -> string) : t =
  let seq =
    List.fold_left (fun acc e -> max acc e.ce_seq) rc.rc_barrier rc.rc_entries
  in
  let t =
    {
      cfg;
      events = 0;
      seq;
      committed = seq;
      barrier = rc.rc_barrier;
      wal =
        open_out_gen
          [ Open_wronly; Open_creat; Open_append; Open_binary ]
          0o644
          (cfg.dir // wal_name rc.rc_barrier);
      checkpoints = 0;
      replayed = List.length rc.rc_entries;
      recovered_from = Some rc.rc_barrier;
    }
  in
  write_checkpoint t ~state;
  t

(** Release the WAL channel (tests recover many sessions in one
    process; the daemon just exits). *)
let close t = close_out_noerr t.wal

(* ------------------------------------------------------------------ *)
(* Introspection *)

let status_json t =
  Json.Obj
    [
      ("dir", Json.Str t.cfg.dir);
      ("seq", Json.Int t.seq);
      ("committed", Json.Int t.committed);
      ("barrier", Json.Int t.barrier);
      ("interval", Json.Int t.cfg.interval);
      ("events", Json.Int t.events);
      ("checkpoints", Json.Int t.checkpoints);
      ("replayed", Json.Int t.replayed);
      ( "recovered_from",
        match t.recovered_from with
        | Some g -> Json.Int g
        | None -> Json.Null );
    ]

let torn_json (tt : torn) =
  Json.Obj
    [
      ("code", Json.Str "recover.torn-tail");
      ("file", Json.Str tt.torn_file);
      ("line", Json.Int tt.torn_line);
      ("reason", Json.Str tt.torn_reason);
    ]
