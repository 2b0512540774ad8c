(** The terra_serve core: a single-threaded request loop composing the
    pool, the tenant table, and the supervision stack into a daemon that
    survives arbitrary tenant misbehavior.

    Per request, in order:

    + tenant admission (in-flight, fuel, memory budgets) — rejection is
      a [serve.rejected] response and costs no engine time;
    + checkout of a warm engine; a fresh observation slice on it
      ([Engine.reset_scope ~slice:true]: per-request Tprof attribution,
      re-armed leak check);
    + optional relative fault injection (chaos traffic);
    + a supervised transactional run ({!Supervise.Supervisor.run_script}
      with the tenant's breaker, fuel watchdog, retry budget, and
      opt2→opt0 degradation) — any failure rolls the session back;
    + rollback verification: after a failed request the engine
      fingerprint must be byte-identical to the pre-request one; a
      mismatch is reported ([serve.fingerprint-mismatch], exit 3) and
      the engine is recycled rather than trusted again;
    + the per-request leak check; a leaky request is reported once and
      its engine recycled;
    + tenant settlement and pool checkin (wear-based recycling).

    The loop drains gracefully on [{"op":"shutdown"}], end of input, or
    SIGINT (with [Sys.catch_break true]): in-flight work finishes, every
    pooled engine takes a final leak check, and the process exits 0 iff
    the pool is clean. *)

module Json = Tprof.Json
module Diag = Terra.Diag
module Supervisor = Supervise.Supervisor
module Batch = Supervise.Batch

type config = {
  pool_size : int;
  workers : int;
      (** request-executing domains; 1 = the classic single-threaded
          loop, N > 1 dispatches runs onto a {!Tpool.Pool} (responses
          still come back in request order) *)
  recycle_after : int;  (** wear limit per engine *)
  verify_rollback : bool;  (** fingerprint-check every failed request *)
  checked : bool;  (** TerraSan checked engines *)
  opt_level : int;
  engine_fuel : int option;  (** per-engine session fuel; None = unbounded *)
  mem_bytes : int option;  (** heap size per engine *)
  default_budget : Tenant.budget;
  max_line_bytes : int;  (** request-line cap; longer lines are rejected *)
  log : string -> unit;  (** supervision narration (stderr in the CLI) *)
  cache : Terra.Ccache.t option;
      (** shared persistent compilation cache: every pool engine (and,
          under --workers N, every domain) compiles against one handle.
          Excluded from {!config_digest}: cached compiles are
          byte-identical to cold ones, so replay is unaffected. *)
}

let default_config =
  {
    pool_size = 2;
    workers = 1;
    recycle_after = 64;
    verify_rollback = true;
    checked = false;
    opt_level = 2;
    engine_fuel = None;
    mem_bytes = None;
    default_budget = Tenant.default_budget;
    max_line_bytes = 1 lsl 20;
    log = ignore;
    cache = None;
  }

type t = {
  cfg : config;
  pool : Pool.t;
  tenants : Tenant.table;
  lock : Mutex.t;
      (** guards [served] and serializes WAL appends; the pool and the
          tenant table carry their own locks *)
  mutable served : int;  (** run requests answered (incl. rejections) *)
  mutable draining : bool;
  mutable journal : Durable.t option;  (** WAL, when running --durable *)
  mutable replaying : bool;  (** recovery replay in progress *)
  mutable replay_pin : int option * Durable.admission;
      (** slot + admission the WAL pinned for the entry being replayed *)
  mutable crashed : int option;
      (** set by the writer domain when [crash_at] fires there; the
          dispatcher re-raises {!Durable.Crashed} on the main domain *)
}

let bump_served t =
  Mutex.lock t.lock;
  t.served <- t.served + 1;
  Mutex.unlock t.lock

let make_engine config () =
  Terrastd.create ?mem_bytes:config.mem_bytes ?fuel:config.engine_fuel
    ~checked:config.checked ~opt_level:config.opt_level ~profile:true
    ?ccache:config.cache ()

let create ?(config = default_config) () =
  {
    cfg = config;
    pool = Pool.create ~make:(make_engine config) ~size:config.pool_size
        ~recycle_after:config.recycle_after;
    tenants = Tenant.table ~default_budget:config.default_budget;
    lock = Mutex.create ();
    served = 0;
    draining = false;
    journal = None;
    replaying = false;
    replay_pin = (None, Durable.Unrecorded);
    crashed = None;
  }

(* ------------------------------------------------------------------ *)
(* Run requests *)

let vm_of (eng : Terra.Engine.t) = eng.Terra.Engine.ctx.Terra.Context.vm

(* Arm the request's relative fault injections against the live session:
   ordinals are offsets from the allocations/steps already retired. *)
let arm_faults (eng : Terra.Engine.t) (r : Protocol.run_req) =
  let vm = vm_of eng in
  (match r.Protocol.r_fail_alloc with
  | Some n ->
      let base =
        match vm.Tvm.Vm.faults with
        | Some f -> Tvm.Fault.allocs f
        | None -> 0
      in
      Terra.Engine.inject eng (Tvm.Fault.Fail_alloc (base + n))
  | None -> ());
  match r.Protocol.r_trap_in with
  | Some n ->
      Terra.Engine.inject eng (Tvm.Fault.Trap_at_step (vm.Tvm.Vm.steps + n))
  | None -> ()

(* A run request that cleared admission and source resolution: the
   request-order part of handling is done, only engine time is left. *)
type admitted = {
  ad_tenant : Tenant.t;
  ad_name : string;
  ad_file : string;
  ad_grant : int;
  ad_src : string;
}

type prepared =
  | Rejected of Json.t  (** admission refused; no engine, no settle *)
  | No_source of Json.t * int  (** admitted, but the source read failed *)
  | Admitted of admitted

(* Admission + source resolution.  This is the request-order half of a
   run request: it moves [served] and books the tenant's admission, so
   under --workers N it runs on the dispatch thread, in request order —
   the WAL records its outcome and replay imposes it verbatim (live
   admission under concurrency depends on scheduling). *)
let prepare_run (t : t) (r : Protocol.run_req) : prepared =
  bump_served t;
  let tenant_name =
    Option.value r.Protocol.r_tenant ~default:Batch.default_tenant
  in
  let tenant = Tenant.find t.tenants tenant_name in
  let file =
    match (r.Protocol.r_path, r.Protocol.r_src) with
    | Some p, _ -> p
    | None, _ -> "<inline>"
  in
  let decision =
    if t.replaying then
      match snd t.replay_pin with
      | Durable.Granted g -> Ok (Tenant.book_admission tenant ~grant:g)
      | Durable.Rejected -> Error (Tenant.book_rejection tenant)
      | Durable.Unrecorded ->
          (* legacy journal without pinned admissions: recompute, which
             is exact for the single-threaded sessions that wrote it *)
          Tenant.admit tenant ~req_fuel:r.Protocol.r_fuel
    else Tenant.admit tenant ~req_fuel:r.Protocol.r_fuel
  in
  match decision with
  | Error d ->
      t.cfg.log
        (Printf.sprintf "serve: %s rejected for tenant '%s' (%s)" file
           tenant_name d.Diag.code);
      Rejected
        (Protocol.error_json ~status:"rejected" ~tenant:tenant_name ~file
           ~extra:Protocol.no_engine_extra d)
  | Ok fuel_grant -> (
      match
        match r.Protocol.r_src with
        | Some src -> Ok src
        | None -> (
            match Batch.read_file file with
            | src -> Ok src
            | exception Sys_error msg ->
                Error (Diag.make ~phase:Diag.Eval ~code:"batch.io" msg))
      with
      | Error d ->
          Tenant.settle tenant ~fuel:0 ~mem_delta:0 ~leaked:0 ~ok:false;
          No_source
            ( Protocol.error_json ~tenant:tenant_name ~file
                ~extra:Protocol.no_engine_extra d,
              fuel_grant )
      | Ok src ->
          Admitted
            {
              ad_tenant = tenant;
              ad_name = tenant_name;
              ad_file = file;
              ad_grant = fuel_grant;
              ad_src = src;
            })

(* Slot assignment: round-robin live, WAL-pinned during replay — the
   pin is what lets sequential replay reproduce the engine placement of
   a parallel run. *)
let checkout_for_run (t : t) : Pool.slot =
  if t.replaying then
    match fst t.replay_pin with
    | Some id ->
        if id < 0 || id >= Pool.size t.pool then
          Diag.error ~phase:Diag.Run ~code:"recover.bad-slot"
            "journal pins slot %d but the pool has %d slots" id
            (Pool.size t.pool)
        else Pool.checkout_pinned t.pool id
    | None -> Pool.checkout t.pool
  else Pool.checkout t.pool

(* Engine time for an admitted request.  Returns the response and, when
   the session is journaling, the slot's post-checkin fingerprint for
   the WAL's end record (read under the pool lock, after any recycle,
   before the slot is republished — so a parallel next checkout cannot
   race it). *)
let execute_admitted (t : t) (r : Protocol.run_req) (a : admitted)
    (slot : Pool.slot) : Json.t * string option =
  let tenant = a.ad_tenant in
  let tenant_name = a.ad_name in
  let file = a.ad_file in
  let fuel_grant = a.ad_grant in
  let src = a.ad_src in
  let eng = slot.Pool.eng in
          (* fresh observation slice: per-request profile attribution and
             a re-armed leak check *)
          Terra.Engine.reset_scope ~slice:true eng;
          let saved_depth = eng.Terra.Engine.lua_depth in
          (match tenant.Tenant.budget.Tenant.max_call_depth with
          | Some d -> Terra.Engine.set_limits ~max_call_depth:d eng
          | None -> ());
          arm_faults eng r;
          let live_before = Pool.slot_live_bytes slot in
          let mark = Terra.Engine.statics_mark eng in
          (* fingerprints are read-only, so skipping verification during
             recovery replay cannot diverge the replayed state — and the
             final per-slot tie-out still catches any corruption *)
          let fp_before =
            if t.cfg.verify_rollback && not t.replaying then
              Some (Terra.Engine.fingerprint ~statics_upto:mark eng)
            else None
          in
          let config =
            {
              Supervisor.default_config with
              breaker = Some tenant.Tenant.breaker;
              call_fuel = Some fuel_grant;
              max_retries =
                Option.value r.Protocol.r_retries
                  ~default:tenant.Tenant.budget.Tenant.max_retries;
            }
          in
          let o = Supervisor.run_script ~config ~key:tenant_name ~file eng src in
          (* rollback verification: a failed request must leave the
             engine byte-identical *)
          let rollback =
            match (fp_before, o.Supervisor.result) with
            | Some fp, Error _ ->
                if
                  String.equal fp
                    (Terra.Engine.fingerprint ~statics_upto:mark eng)
                then `Verified
                else `Failed
            | _ -> `NA
          in
          (* per-request leak check (fresh blocks only) *)
          let leaks = Terra.Engine.leak_report eng in
          let leaked_bytes = List.fold_left (fun a (_, s) -> a + s) 0 leaks in
          let live_after = Pool.slot_live_bytes slot in
          Tenant.settle tenant ~fuel:o.Supervisor.fuel_used
            ~mem_delta:(live_after - live_before) ~leaked:leaked_bytes
            ~ok:(Result.is_ok o.Supervisor.result);
          let anomaly =
            if rollback = `Failed then Some Pool.Fingerprint
            else if leaks <> [] then Some Pool.Leak
            else None
          in
          (if anomaly <> None then
             t.cfg.log
               (Printf.sprintf "serve: engine %d recycled after %s (%s)"
                  slot.Pool.id file
                  (match anomaly with
                  | Some Pool.Fingerprint -> "fingerprint mismatch"
                  | _ -> "leak")));
          (* the engine object survives in [eng] even if the slot is
             recycled; restore its budgets only when it stays pooled *)
          let fp_end = ref None in
          let after =
            if t.journal <> None && not t.replaying then
              Some
                (fun (s : Pool.slot) ->
                  fp_end := Some (Terra.Engine.fingerprint s.Pool.eng))
            else None
          in
          Pool.checkin ?after t.pool slot ~anomaly;
          if slot.Pool.eng == eng then
            Terra.Engine.set_limits ~max_call_depth:saved_depth eng;
          let exit_code =
            if rollback = `Failed then 3
            else
              Protocol.exit_code ~checked:t.cfg.checked
                ~leaked:(leaks <> [])
                (Result.map ignore o.Supervisor.result)
          in
          let leak_diag =
            match Terra.Engine.leak_diag eng with
            | Some d when leaks <> [] -> Json.Str d.Diag.message
            | _ -> Json.Null
          in
          let resp =
            let entry = Batch.entry_of_outcome ~file ~tenant:tenant_name o in
            Protocol.entry_json
              (if rollback = `Failed then
                 { entry with Batch.e_code = Some "serve.fingerprint-mismatch" }
               else entry)
              ~extra:
                [
                  ("engine", Json.Int slot.Pool.id);
                  ("exit", Json.Int exit_code);
                  ( "rollback",
                    match rollback with
                    | `Verified -> Json.Str "verified"
                    | `Failed -> Json.Str "failed"
                    | `NA -> Json.Null );
                  ("leaked_bytes", Json.Int leaked_bytes);
                  ("leak", leak_diag);
                  ("recycled", Json.Bool (anomaly <> None));
                ]
          in
          (resp, !fp_end)

(* One run request end to end, single-threaded.  [begun] fires once the
   admission decision and any slot assignment are known, before engine
   time — it is the WAL's write-ahead hook. *)
let handle_run ?(begun = fun ~slot:_ ~adm:_ -> ()) (t : t)
    (r : Protocol.run_req) : Json.t * string option =
  match prepare_run t r with
  | Rejected resp ->
      begun ~slot:None ~adm:Durable.Rejected;
      (resp, None)
  | No_source (resp, grant) ->
      begun ~slot:None ~adm:(Durable.Granted grant);
      (resp, None)
  | Admitted a ->
      let slot = checkout_for_run t in
      begun ~slot:(Some slot.Pool.id) ~adm:(Durable.Granted a.ad_grant);
      execute_admitted t r a slot

(* ------------------------------------------------------------------ *)
(* Introspection *)

let status_json (t : t) =
  Json.Obj
    [
      ("schema", Json.Str "terra-serve-1");
      ("op", Json.Str "status");
      ("served", Json.Int t.served);
      ("draining", Json.Bool t.draining);
      ("checked", Json.Bool t.cfg.checked);
      ("opt_level", Json.Int t.cfg.opt_level);
      ("verify_rollback", Json.Bool t.cfg.verify_rollback);
      ("live_bytes", Json.Int (Pool.live_bytes t.pool));
      ("pool", Pool.status_json t.pool);
      ( "tenants",
        Json.List (List.map Tenant.status_json (Tenant.all t.tenants)) );
      ( "durable",
        match t.journal with
        | Some j -> Durable.status_json j
        | None -> Json.Null );
      ( "ccache",
        match t.cfg.cache with
        | None -> Json.Null
        | Some cc ->
            let c = Terra.Ccache.counts cc in
            Json.Obj
              [
                ("hits", Json.Int c.Terra.Ccache.c_hits);
                ("misses", Json.Int c.Terra.Ccache.c_misses);
                ("stores", Json.Int c.Terra.Ccache.c_stores);
                ("bad_entries", Json.Int c.Terra.Ccache.c_bad_entries);
              ] );
    ]

let profile_json (t : t) =
  let engines =
    Array.to_list
      (Array.map
         (fun (s : Pool.slot) ->
           let prof =
             match Json.of_string (Terra.Engine.profile_json s.Pool.eng) with
             | Ok j -> j
             | Error msg -> Json.Str ("unparseable profile: " ^ msg)
           in
           Json.Obj
             [
               ("id", Json.Int s.Pool.id);
               ("served", Json.Int s.Pool.served);
               ("profile", prof);
             ])
         t.pool.Pool.slots)
  in
  Json.Obj
    [
      ("schema", Json.Str "terra-serve-1");
      ("op", Json.Str "profile");
      ("engines", Json.List engines);
    ]

let breakers_json (t : t) =
  Json.Obj
    [
      ("schema", Json.Str "terra-serve-1");
      ("op", Json.Str "breakers");
      ( "tenants",
        Json.List (List.map Tenant.breakers_json (Tenant.all t.tenants)) );
    ]

(* ------------------------------------------------------------------ *)
(* Durability *)

(** The marshaled checkpoint payload: every piece of server state a
    recovered process needs beyond what the config rebuilds. *)
type persisted = {
  p_config : string;  (** digest of the behavior-relevant config *)
  p_served : int;
  p_pool : Pool.meta;
  p_tenants : Tenant.snapshot list;  (** first-seen order *)
  p_engines : Terra.Engine.snapshot array;  (** one per slot, in order *)
}

(* Replay is only exact under the same knobs (engine sizing, budgets,
   breaker thresholds, pool shape), so the checkpoint embeds a digest
   of everything behavior-relevant and recovery refuses a mismatch. *)
let config_digest (c : config) =
  let b = c.default_budget in
  let opt = function Some n -> string_of_int n | None -> "-" in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "pool=%d;recycle=%d;verify=%b;checked=%b;opt=%d;fuel=%s;mem=%s;\
           budget=%d,%d,%d,%s,%d,%d;cb=%d,%d;line=%d"
          c.pool_size c.recycle_after c.verify_rollback c.checked c.opt_level
          (opt c.engine_fuel) (opt c.mem_bytes) b.Tenant.fuel_per_request
          b.Tenant.fuel_total b.Tenant.mem_bytes
          (opt b.Tenant.max_call_depth)
          b.Tenant.max_inflight b.Tenant.max_retries
          b.Tenant.breaker.Supervise.Policy.cb_threshold
          b.Tenant.breaker.Supervise.Policy.cb_cooldown c.max_line_bytes))

let persist (t : t) : string =
  Marshal.to_string
    {
      p_config = config_digest t.cfg;
      p_served = t.served;
      p_pool = Pool.meta t.pool;
      p_tenants = List.map Tenant.snapshot (Tenant.all t.tenants);
      p_engines =
        Array.map
          (fun (s : Pool.slot) -> Terra.Engine.snap s.Pool.eng)
          t.pool.Pool.slots;
    }
    []

let outcome_of (resp : Json.t) =
  Option.value (Json.to_string_opt (Json.member "status" resp)) ~default:"error"

let slot_of (resp : Json.t) = Json.to_int_opt (Json.member "engine" resp)

(* Single-threaded journaling: appends run under [t.lock] on the request
   thread.  (Under --workers N the WAL has a dedicated writer domain
   instead — see run_channels_par — and these helpers see no journal
   because the dispatcher owns it.) *)
let journal_begin t input ~slot ~adm =
  match t.journal with
  | Some j when not t.replaying ->
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> Durable.begin_request ?slot ~adm j input)
  | _ -> 0

let journal_end t ~seq ~(resp : Json.t) ~fp =
  match t.journal with
  | Some j when not t.replaying ->
      Mutex.lock t.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
      Durable.end_request j ~seq ~outcome:(outcome_of resp)
        ~slot:(slot_of resp) ~fp
        ~state:(fun () -> persist t)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The request loop *)

(** Final drain: leak-check every pooled engine.  Returns the drain
    response and the process exit code (0 iff the pool is clean). *)
let drain (t : t) ~reason : Json.t * int =
  t.draining <- true;
  let bad = Pool.final_leak_check t.pool in
  let clean = bad = [] in
  ( Json.Obj
      [
        ("schema", Json.Str "terra-serve-1");
        ("op", Json.Str "shutdown");
        ("reason", Json.Str reason);
        ("served", Json.Int t.served);
        ("status", Json.Str (if clean then "clean" else "leaky"));
        ( "leaks",
          Json.List
            (List.map
               (fun (id, d) ->
                 Json.Obj
                   [
                     ("engine", Json.Int id);
                     ("message", Json.Str d.Diag.message);
                   ])
               bad) );
      ],
    if clean then 0 else 2 )

(** Handle one request line.  [None] for blank/comment lines;
    [Some (resp, `Continue | `Shutdown)] otherwise.  Run requests and
    parse-error lines mutate server state, so both go through the WAL
    (begin before execution, commit after); introspection ops do not. *)
let handle (t : t) (line : string) :
    (Json.t * [ `Continue | `Shutdown ]) option =
  match Protocol.parse line with
  | Ok None -> None
  | Ok (Some Protocol.Status) -> Some (status_json t, `Continue)
  | Ok (Some Protocol.Profile) -> Some (profile_json t, `Continue)
  | Ok (Some Protocol.Breakers) -> Some (breakers_json t, `Continue)
  | Ok (Some Protocol.Shutdown) -> Some (Json.Null, `Shutdown)
  | (Error _ | Ok (Some (Protocol.Run _))) as parsed ->
      let seq = ref 0 in
      let begun ~slot ~adm =
        seq := journal_begin t (Durable.Line line) ~slot ~adm
      in
      let resp, fp =
        match parsed with
        | Ok (Some (Protocol.Run r)) -> handle_run ~begun t r
        | Error d ->
            begun ~slot:None ~adm:Durable.Unrecorded;
            bump_served t;
            (Protocol.error_json ~extra:Protocol.no_engine_extra d, None)
        | Ok _ -> assert false
      in
      journal_end t ~seq:!seq ~resp ~fp;
      Some (resp, `Continue)

let oversize_resp (t : t) (len : int) : Json.t =
  Protocol.error_json ~extra:Protocol.no_engine_extra
    (Protocol.bad_request "request line of %d bytes exceeds the %d-byte cap"
       len t.cfg.max_line_bytes)

(** An over-long request line was drained without buffering: reject it
    (journaled — the rejection moves [served]). *)
let handle_oversize (t : t) (len : int) : Json.t =
  let seq =
    journal_begin t (Durable.Oversize len) ~slot:None ~adm:Durable.Unrecorded
  in
  bump_served t;
  let resp = oversize_resp t len in
  journal_end t ~seq ~resp ~fp:None;
  resp

(* ------------------------------------------------------------------ *)
(* Durability: session setup and recovery *)

(* Durable parallel service needs same-tenant requests serialized in
   request order (max_inflight = 1, the default): tenant counter sums
   are order-independent, but the per-tenant breaker's logical clock is
   not — letting one tenant's requests race would make sequential
   replay diverge from the state that was checkpointed. *)
let durable_workers_guard (config : config) : (unit, Diag.t) result =
  if config.workers > 1 && config.default_budget.Tenant.max_inflight <> 1 then
    Error
      (Diag.make ~phase:Diag.Run ~code:"durable.tenant-inflight"
         (Printf.sprintf
            "--durable with --workers %d requires --tenant-inflight 1 (got \
             %d): per-tenant order must be deterministic for replay"
            config.workers config.default_budget.Tenant.max_inflight))
  else Ok ()

(** Turn on the write-ahead journal for a fresh server. *)
let enable_durability (t : t) ~dir ?interval ?crash_at ?on_event () :
    (unit, Diag.t) result =
  match durable_workers_guard t.cfg with
  | Error d -> Error d
  | Ok () -> (
      let cfg = Durable.config ?interval ?crash_at ?on_event dir in
      match Durable.create cfg ~state:(fun () -> persist t) with
      | Ok j ->
          t.journal <- Some j;
          Ok ()
      | Error d -> Error d)

(** Recover a durable session from [dir]: load the newest valid
    checkpoint, rebuild the pool and tenant table, replay the committed
    WAL suffix (responses discarded — they were already delivered), and
    verify every slot's fingerprint against the one recorded at commit
    time.  On success the returned server has a live journal again and
    the report describes what recovery did (including any torn tail it
    degraded around). *)
let recover ?(config = default_config) ~dir ?interval ?crash_at ?on_event ()
    : (t * Json.t, Diag.t) result =
  match durable_workers_guard config with
  | Error d -> Error d
  | Ok () -> (
  match Durable.recover_scan ~dir with
  | Error d -> Error d
  | Ok rc -> (
      match Terra.Blobio.unmarshal rc.Durable.rc_state with
      | Error msg ->
          Error
            (Diag.make ~phase:Diag.Run ~code:"recover.bad-checkpoint"
               ("checkpoint " ^ msg))
      | Ok (p : persisted) ->
          if not (String.equal p.p_config (config_digest config)) then
            Error
              (Diag.make ~phase:Diag.Run ~code:"recover.config-mismatch"
                 "server configuration differs from the checkpointed \
                  session; recovery would not replay exactly")
          else begin
            match
              let make = make_engine config in
              let engines =
                Array.map
                  (fun snap ->
                    let e = make () in
                    Terra.Engine.restore_snap e snap;
                    e)
                  p.p_engines
              in
              let t =
                {
                  cfg = config;
                  pool =
                    Pool.restore ~make ~recycle_after:config.recycle_after
                      p.p_pool engines;
                  tenants =
                    Tenant.table ~default_budget:config.default_budget;
                  lock = Mutex.create ();
                  served = p.p_served;
                  draining = false;
                  journal = None;
                  replaying = true;
                  replay_pin = (None, Durable.Unrecorded);
                  crashed = None;
                }
              in
              List.iter (Tenant.restore t.tenants) p.p_tenants;
              (* deterministic replay of the committed suffix:
                 sequential even when the journal came from a parallel
                 run — each entry re-executes on the slot its begin
                 record pinned, under the admission it recorded *)
              List.iter
                (fun (e : Durable.committed_entry) ->
                  t.replay_pin <- (e.Durable.ce_pin, e.Durable.ce_adm);
                  match e.Durable.ce_input with
                  | Durable.Line l -> ignore (handle t l)
                  | Durable.Oversize n -> ignore (handle_oversize t n))
                rc.Durable.rc_entries;
              t.replay_pin <- (None, Durable.Unrecorded);
              t.replaying <- false;
              (* fingerprint tie-out: for every slot, the recovered
                 engine must match the last fingerprint committed for
                 it (or be untouched since the checkpoint) *)
              let expected = Array.make (Pool.size t.pool) None in
              List.iter
                (fun (e : Durable.committed_entry) ->
                  match (e.Durable.ce_slot, e.Durable.ce_fp) with
                  | Some id, Some fp when id >= 0 && id < Array.length expected
                    ->
                      expected.(id) <- Some fp
                  | _ -> ())
                rc.Durable.rc_entries;
              Array.iteri
                (fun id exp ->
                  match exp with
                  | Some fp ->
                      let now =
                        Terra.Engine.fingerprint t.pool.Pool.slots.(id).Pool.eng
                      in
                      if not (String.equal now fp) then
                        Diag.error ~phase:Diag.Run
                          ~code:"recover.fingerprint-mismatch"
                          "engine %d replayed to fingerprint %s but %s was \
                           committed"
                          id now fp
                  | None -> ())
                expected;
              let j =
                Durable.resume
                  (Durable.config ?interval ?crash_at ?on_event dir)
                  ~rc ~state:(fun () -> persist t)
              in
              t.journal <- Some j;
              let report =
                Json.Obj
                  [
                    ("schema", Json.Str "terra-serve-1");
                    ("op", Json.Str "recover");
                    ("barrier", Json.Int rc.Durable.rc_barrier);
                    ( "replayed",
                      Json.Int (List.length rc.Durable.rc_entries) );
                    ("seq", Json.Int (Option.get t.journal).Durable.seq);
                    ("discarded", Json.Int rc.Durable.rc_discarded);
                    ( "torn",
                      match rc.Durable.rc_torn with
                      | Some tt -> Durable.torn_json tt
                      | None -> Json.Null );
                    ( "skipped_checkpoints",
                      Json.List
                        (List.map
                           (fun (f, why) ->
                             Json.Obj
                               [
                                 ("file", Json.Str f);
                                 ("reason", Json.Str why);
                               ])
                           rc.Durable.rc_skipped) );
                  ]
              in
              (t, report)
            with
            | result -> Ok result
            | exception Diag.Error d -> Error d
          end))

(* ------------------------------------------------------------------ *)
(* The request line reader *)

(** Read one newline-terminated request, bounding memory: once a line
    exceeds [max_bytes] the rest is drained unbuffered and the line is
    reported as oversized (its true length attached). *)
let read_request ic ~max_bytes : [ `Line of string | `Oversize of int | `Eof ]
    =
  let buf = Buffer.create 256 in
  let rec go count =
    match input_char ic with
    | exception End_of_file ->
        if count = 0 then `Eof
        else if count > max_bytes then `Oversize count
        else `Line (Buffer.contents buf)
    | '\n' -> if count > max_bytes then `Oversize count else `Line (Buffer.contents buf)
    | c ->
        if count < max_bytes then Buffer.add_char buf c;
        go (count + 1)
  in
  go 0

(** The classic single-threaded loop. *)
let run_channels_seq (t : t) (ic : in_channel) (oc : out_channel) : int =
  let reply j =
    output_string oc (Json.to_string j);
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match read_request ic ~max_bytes:t.cfg.max_line_bytes with
    | exception Sys.Break -> "signal"
    | `Eof -> "eof"
    | `Oversize len ->
        reply (handle_oversize t len);
        loop ()
    | `Line line -> (
        match handle t line with
        | None -> loop ()
        | Some (resp, `Continue) ->
            reply resp;
            loop ()
        | Some (_, `Shutdown) -> "shutdown")
  in
  let reason = loop () in
  let resp, code = drain t ~reason in
  reply resp;
  (match t.journal with Some j -> Durable.close j | None -> ());
  code

(* What flows to the writer domain.  [Begun] and [Done] carry the
   dispatcher-assigned response sequence number; [Begun i] always
   precedes [Done i] in the channel, so the writer journals every begin
   in request order before the matching commit can arrive. *)
type wire =
  | Begun of int * Durable.input * int option * Durable.admission
      (** journal a begin record for response [i]: input, slot pin,
          admission pin *)
  | Done of int * Json.t * string option * bool
      (** response [i] finished: payload, post-checkin fingerprint,
          whether a begin was journaled for it *)
  | Barrier of [ `Sync | `Checkpoint ]
      (** the dispatcher is quiesced and gate-blocked: flush everything
          queued before this message, optionally checkpoint, then
          release the gate *)

(** The multi-domain loop: the main thread reads and classifies request
    lines, run requests execute on a [workers]-domain {!Tpool.Pool}, and
    a dedicated writer domain reorders completions so responses leave in
    request order no matter which worker finishes first.

    The writer domain also owns the WAL when the session is durable:
    begin records are appended in dispatch order (the dispatcher sends
    [Begun] before handing the request to a worker), end records in
    response order (as the reorder buffer drains), so commit order
    equals response order and durability events are numbered at a single
    domain — [--crash-at N] is well-defined under concurrency.  The
    dispatcher does admission, source resolution, and slot checkout
    itself, in request order, which both gives the begin record its pin
    and guarantees per-slot execution order equals request order — the
    invariant that makes sequential slot-pinned replay exact.

    Checkpoints happen at barriers: after the interval-th state-mutating
    dispatch the dispatcher quiesces in-flight requests (the same
    machinery introspection and drain use), then gate-waits for the
    writer to drain its queue and snapshot — so every checkpoint
    captures a consistent multi-engine state with no request half-done
    and no begin/end pair split across WAL generations. *)
let run_channels_par (t : t) ~workers (ic : in_channel) (oc : out_channel) :
    int =
  let out : wire Tpool.Chan.t = Tpool.Chan.create () in
  let gate = Tpool.Gate.create () in
  let durable = t.journal <> None in
  let writer =
    Domain.spawn (fun () ->
        let pending : (int, Json.t * string option * bool) Hashtbl.t =
          Hashtbl.create 32
        in
        let wal_seq : (int, int) Hashtbl.t = Hashtbl.create 32 in
        let next = ref 0 in
        let crashed = ref false in
        let commit_and_reply i (resp, fp, journaled) =
          (if journaled then
             match t.journal with
             | Some j ->
                 let seq = Option.value (Hashtbl.find_opt wal_seq i) ~default:0 in
                 Hashtbl.remove wal_seq i;
                 (* the interval check is the dispatcher's job (it must
                    quiesce first), so the writer only commits here *)
                 ignore
                   (Durable.commit_request j ~seq ~outcome:(outcome_of resp)
                      ~slot:(slot_of resp) ~fp)
             | None -> ());
          output_string oc (Json.to_string resp);
          output_char oc '\n';
          flush oc
        in
        let rec flush_ready () =
          match Hashtbl.find_opt pending !next with
          | Some c ->
              Hashtbl.remove pending !next;
              commit_and_reply !next c;
              incr next;
              flush_ready ()
          | None -> ()
        in
        let handle_msg = function
          | Begun (i, input, slot, adm) -> (
              match t.journal with
              | Some j ->
                  Hashtbl.replace wal_seq i
                    (Durable.begin_request ?slot ~adm j input)
              | None -> ())
          | Done (i, resp, fp, journaled) ->
              Hashtbl.replace pending i (resp, fp, journaled);
              flush_ready ()
          | Barrier kind ->
              (match (kind, t.journal) with
              | `Checkpoint, Some j ->
                  Durable.write_checkpoint j ~state:(fun () -> persist t)
              | _ -> ());
              Tpool.Gate.release gate
        in
        let rec loop () =
          match Tpool.Chan.recv out with
          | None -> ()
          | Some msg ->
              (* After a simulated crash nothing more reaches the disk
                 or the client — the on-disk state is frozen exactly at
                 event N-1, as a real kill -9 would leave it — but
                 barriers still release their gate so the dispatcher can
                 unwind and re-raise on the main domain. *)
              (if !crashed then
                 match msg with
                 | Barrier _ -> Tpool.Gate.release gate
                 | Begun _ | Done _ -> ()
               else
                 try handle_msg msg
                 with Durable.Crashed n ->
                   crashed := true;
                   t.crashed <- Some n;
                   (match msg with
                   | Barrier _ -> Tpool.Gate.release gate
                   | _ -> ()));
              loop ()
        in
        loop ())
  in
  let seq = ref 0 in
  let next_seq () =
    let i = !seq in
    incr seq;
    i
  in
  let m = Mutex.create () in
  let idle = Condition.create () in
  let inflight = ref 0 in
  let quiesce () =
    Mutex.lock m;
    while !inflight > 0 do
      Condition.wait idle m
    done;
    Mutex.unlock m
  in
  (* Quiesce the workers, then drain the writer: when this returns,
     every prior request has executed, committed, and been emitted, and
     no engine is running.  The gate's mutex is also the happens-before
     edge that makes journal and pool state written by the writer domain
     safe to read here. *)
  let sync kind =
    quiesce ();
    let tk = Tpool.Gate.ticket gate in
    Tpool.Chan.send out (Barrier kind);
    Tpool.Gate.await gate tk
  in
  let interval =
    match t.journal with
    | Some j -> j.Durable.cfg.Durable.interval
    | None -> max_int
  in
  let since_barrier = ref 0 in
  (* Count a state-mutating dispatch; at the interval boundary, take the
     checkpoint barrier.  The quiesce inside [sync] waits for the
     just-dispatched request too, so the snapshot covers exactly the
     same committed prefix the single-threaded server would have. *)
  let mutated () =
    if durable && t.crashed = None then begin
      incr since_barrier;
      if !since_barrier >= interval then begin
        sync `Checkpoint;
        since_barrier := 0
      end
    end
  in
  let reason =
    Tpool.Pool.with_pool ~domains:workers (fun pool ->
        let send_done i resp fp journaled =
          Tpool.Chan.send out (Done (i, resp, fp, journaled))
        in
        (* a mutating request that never reaches a worker: journal its
           begin (pin-less) and complete it in one breath *)
        let complete_inline i input resp =
          if durable then Tpool.Chan.send out (Begun (i, input, None, Durable.Unrecorded));
          send_done i resp None durable;
          mutated ()
        in
        let dispatch_run r line =
          let i = next_seq () in
          match prepare_run t r with
          | Rejected resp ->
              if durable then
                Tpool.Chan.send out
                  (Begun (i, Durable.Line line, None, Durable.Rejected));
              send_done i resp None durable;
              mutated ()
          | No_source (resp, grant) ->
              if durable then
                Tpool.Chan.send out
                  (Begun (i, Durable.Line line, None, Durable.Granted grant));
              send_done i resp None durable;
              mutated ()
          | Admitted a ->
              (* checkout on the dispatch thread: per-slot execution
                 order = request order, and the begin record gets its
                 slot pin before the worker starts *)
              let slot = Pool.checkout t.pool in
              if durable then
                Tpool.Chan.send out
                  (Begun
                     ( i,
                       Durable.Line line,
                       Some slot.Pool.id,
                       Durable.Granted a.ad_grant ));
              Mutex.lock m;
              incr inflight;
              Mutex.unlock m;
              Tpool.Pool.run pool (fun _w ->
                  let resp, fp =
                    try execute_admitted t r a slot
                    with e ->
                      (* the slot must come back even on an internal
                         error; its engine is no longer trusted *)
                      Pool.checkin t.pool slot ~anomaly:(Some Pool.Fingerprint);
                      ( Protocol.error_json ~extra:Protocol.no_engine_extra
                          (Diag.make ~phase:Diag.Run ~code:"serve.internal"
                             (Printexc.to_string e)),
                        None )
                  in
                  send_done i resp fp durable;
                  Mutex.lock m;
                  decr inflight;
                  if !inflight = 0 then Condition.broadcast idle;
                  Mutex.unlock m);
              mutated ()
        in
        let emit j = send_done (next_seq ()) j None false in
        let rec loop () =
          if t.crashed <> None then "crashed"
          else
            match read_request ic ~max_bytes:t.cfg.max_line_bytes with
            | exception Sys.Break -> "signal"
            | `Eof -> "eof"
            | `Oversize len ->
                bump_served t;
                complete_inline (next_seq ()) (Durable.Oversize len)
                  (oversize_resp t len);
                loop ()
            | `Line line -> (
                match Protocol.parse line with
                | Ok None -> loop ()
                | Ok (Some Protocol.Status) ->
                    sync `Sync;
                    emit (status_json t);
                    loop ()
                | Ok (Some Protocol.Profile) ->
                    sync `Sync;
                    emit (profile_json t);
                    loop ()
                | Ok (Some Protocol.Breakers) ->
                    sync `Sync;
                    emit (breakers_json t);
                    loop ()
                | Ok (Some Protocol.Shutdown) -> "shutdown"
                | Ok (Some (Protocol.Run r)) ->
                    dispatch_run r line;
                    loop ()
                | Error d ->
                    bump_served t;
                    complete_inline (next_seq ()) (Durable.Line line)
                      (Protocol.error_json ~extra:Protocol.no_engine_extra d);
                    loop ())
        in
        let reason = loop () in
        quiesce ();
        reason)
  in
  match t.crashed with
  | Some n ->
      (* unwind without draining: the journal is frozen at the crash
         point; re-raise where the single-threaded path would have *)
      Tpool.Chan.close out;
      Domain.join writer;
      raise (Durable.Crashed n)
  | None ->
      let resp, code = drain t ~reason in
      Tpool.Chan.send out (Done (next_seq (), resp, None, false));
      Tpool.Chan.close out;
      Domain.join writer;
      (match t.journal with Some j -> Durable.close j | None -> ());
      code

(** Serve line-delimited requests from [ic] to [oc] until shutdown, end
    of input, or [Sys.Break] (SIGINT/SIGTERM routed through
    [Sys.catch_break]-style handlers); every exit path drains
    gracefully.  Returns the process exit code.  [config.workers] > 1
    selects the multi-domain loop; durable sessions compose with it —
    the WAL moves to the writer domain and replay pins slots. *)
let run_channels (t : t) (ic : in_channel) (oc : out_channel) : int =
  if t.cfg.workers > 1 then run_channels_par t ~workers:t.cfg.workers ic oc
  else run_channels_seq t ic oc
