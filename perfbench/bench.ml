(* The repository benchmark: four seeded workloads, end-to-end host-time
   metrics with tracing off, and a traced run that breaks the time down
   by layer.  See README.md in this directory for the metric list, the
   layer -> metric -> workload map and the baseline.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Json = Tprof.Json
module Engine = Terra.Engine
module Server = Serve.Server

(* ------------------------------------------------------------------ *)
(* Run-wide state: operation accounting and metric sinks *)

let attempted = ref 0
let failed = ref 0

(** Count one operation; [ok = false] makes it a failed operation and
    prints why on standard error (the first twenty). *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        if !failed <= 20 then prerr_endline ("check failed: " ^ msg)
      end)
    fmt

(* A pinned value can be perturbed from the command line so the tests can
   show that the gate catches a changed result. *)
let perturb = ref ""
let pinned name v = if !perturb = name then v + 1 else v
let pinned_s name v = if !perturb = name then v ^ "0" else v

(* End-to-end timings are quantiles of one operation's samples in the
   run.  Interpreter-bound operations (staging, kernels) report the 90th
   percentile: on a shared host they run at two speeds, in phases of
   seconds to minutes, and a median flips between the two from run to
   run, while nearly every run spends a tenth of its time in the slow
   phase.  Serve requests, bound by passes over the arena, report the
   median. *)
let e2e : (string * (float * string)) list ref = ref []
let layer : (string * (float * string)) list ref = ref []
let set sink name unit v = sink := (name, (v, unit)) :: List.remove_assoc name !sink
let add sink name unit v =
  let old = match List.assoc_opt name !sink with Some (x, _) -> x | None -> 0.0 in
  set sink name unit (old +. v)

let ms s = s *. 1000.0
let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The per-layer metrics every traced run reports, in BENCHMARK.json
   order.  A layer a workload never enters reads 0. *)
let layer_metrics =
  [
    ("state.create_ms", "ms"); ("state.fingerprint_ms", "ms");
    ("state.snap_ms", "ms"); ("state.restore_ms", "ms");
    ("state.fingerprints_per_req", "count"); ("state.snap_bytes", "bytes");
    ("serve.handle_ok_ms", "ms"); ("serve.handle_failed_ms", "ms");
    ("serve.handle_ckpt_ms", "ms"); ("serve.state_share", "ratio");
    ("serve.state_explained_pct", "%");
    ("durable.wal_bytes", "bytes"); ("durable.ckpt_bytes", "bytes");
    ("durable.ckpts", "count"); ("recover.replayed", "count");
    ("recover.barrier", "count"); ("pool.recycles", "count");
    ("supervise.attempts", "count"); ("supervise.retries", "count");
    ("lua.parse_ms", "ms"); ("lua.self_ms", "ms");
    ("jit.specialize_ms", "ms"); ("jit.typecheck_ms", "ms");
    ("jit.typecheck_calls", "count"); ("jit.compile_ms", "ms");
    ("jit.optimize_ms", "ms"); ("jit.codecache_hit", "count");
    ("jit.codecache_miss", "count");
    ("topt.copyprop_ms", "ms"); ("topt.simplify_ms", "ms");
    ("topt.cse_ms", "ms"); ("topt.licm_ms", "ms"); ("topt.cfg_ms", "ms");
    ("topt.dce_ms", "ms"); ("topt.ir_instrs", "count");
    ("ccache.hits", "count"); ("ccache.misses", "count");
    ("ccache.stores", "count"); ("ccache.bad_entries", "count");
    ("ccache.dir_bytes", "bytes");
    ("vm.retired", "count"); ("vm.minstr_per_s", "M/s");
    ("vm.minor_words_per_instr", "words"); ("ffi.call_overhead_us", "us");
    ("kernels.dgemm_scalar_ms", "ms");
    ("tmachine.cycles", "cycles"); ("tmachine.gflops", "GFLOPS");
    ("tmachine.l1_accesses", "count"); ("tmachine.l1_misses", "count");
    ("tmachine.l2_accesses", "count"); ("tmachine.l2_misses", "count");
    ("tmachine.l3_accesses", "count"); ("tmachine.l3_misses", "count");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("self.serve_ms", "ms"); ("self.state_ms", "ms"); ("self.lua_ms", "ms");
    ("self.vm_ms", "ms"); ("self.recover_ms", "ms");
    ("trace.overhead_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let out_dir = Filename.concat "perfbench" "out"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let dirs_made = ref 0

(** A new, unused directory name under [work]. *)
let fresh_dir work prefix =
  incr dirs_made;
  Filename.concat work (Printf.sprintf "%s-%d" prefix !dirs_made)

let file_size path = (Unix.stat path).Unix.st_size

let dir_bytes ?(pred = fun _ -> true) dir =
  Array.fold_left
    (fun acc f -> if pred f then acc + file_size (Filename.concat dir f) else acc)
    0 (Sys.readdir dir)

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc s;
      close_out oc)
    (Sys.readdir src)

let setup_reps = ref 3

(** Run [setup] [!setup_reps] times, keeping the last result; the median
    time is [setup_s].  Earlier results are dropped (and [discard]ed) so
    their memory is returned before the next repetition. *)
let repeated_setup ?(discard = ignore) setup =
  let n = !setup_reps in
  let times = ref [] in
  let last = ref None in
  for _ = 1 to n do
    (match !last with Some x -> discard x | None -> ());
    last := None;
    Gc.compact ();
    let x, dt = Span.timed setup in
    times := dt :: !times;
    last := Some x
  done;
  set e2e "setup_s" "s" (Span.median !times);
  Option.get !last

(** Engine-state operations timed on a live engine at the end of a run:
    the state layer's cost on the state the workload actually built. *)
let state_ops ~make (eng : Engine.t) =
  let _, c = Span.timed (fun () -> Span.span "state.create" make) in
  let _, fp = Span.timed (fun () -> Span.span "state.fingerprint" (fun () -> Engine.fingerprint eng)) in
  let snap, sn = Span.timed (fun () -> Span.span "state.snap" (fun () -> Engine.snap eng)) in
  let (), rs = Span.timed (fun () -> Span.span "state.restore" (fun () -> Engine.restore_snap eng snap)) in
  let img = snap.Engine.snap_session.Tvm.Session.sn_mem in
  set layer "state.create_ms" "ms" (ms c);
  set layer "state.fingerprint_ms" "ms" (ms fp);
  set layer "state.snap_ms" "ms" (ms sn);
  set layer "state.restore_ms" "ms" (ms rs);
  set layer "state.snap_bytes" "bytes"
    (float_of_int
       (String.length img.Tvm.Session.mi_statics
       + List.fold_left (fun a (_, p) -> a + String.length p) 0 img.Tvm.Session.mi_pages));
  ms fp

(** Fold an engine profile's compile-phase rows into the layer metrics. *)
let add_phases (eng : Engine.t) =
  let prof = Engine.profile eng in
  let jit_ms = ref 0.0 in
  List.iter
    (fun (p : Tprof.Report.prow) ->
      let n = p.Tprof.Report.p_name and c = float_of_int p.Tprof.Report.p_count in
      let t = p.Tprof.Report.p_ms in
      let timed name = add layer name "ms" t; jit_ms := !jit_ms +. t in
      match n with
      | "frontend.specialize" -> timed "jit.specialize_ms"
      | "jit.typecheck" -> timed "jit.typecheck_ms"; add layer "jit.typecheck_calls" "count" c
      | "jit.compile" -> timed "jit.compile_ms"
      | "jit.optimize" -> timed "jit.optimize_ms"
      | "jit.codecache.hit" -> add layer "jit.codecache_hit" "count" c
      | "jit.codecache.miss" -> add layer "jit.codecache_miss" "count" c
      | _ -> ())
    prof.Tprof.Report.phases;
  !jit_ms

(** Turn summed Lua and compile-phase metrics into per-operation
    figures. *)
let per_op k =
  let summed n = String.starts_with ~prefix:"jit." n || String.starts_with ~prefix:"lua." n in
  layer := List.map (fun (n, (v, u)) -> if summed n then (n, (v *. k, u)) else (n, (v, u))) !layer

let add_topt (eng : Engine.t) =
  let st = Engine.opt_stats eng in
  List.iter
    (fun (name, _, secs) -> add layer ("topt." ^ name ^ "_ms") "ms" (ms secs))
    (Topt.Stats.entries st);
  add layer "topt.ir_instrs" "count" (float_of_int st.Topt.Stats.s_after)

let set_machine (r : Tmachine.Machine.report) =
  set layer "tmachine.cycles" "cycles" r.Tmachine.Machine.r_cycles;
  List.iteri
    (fun i (_, (s : Tmachine.Cache.level_stats)) ->
      let l = Printf.sprintf "tmachine.l%d_" (i + 1) in
      set layer (l ^ "accesses") "count" (float_of_int (s.Tmachine.Cache.hits + s.Tmachine.Cache.misses));
      set layer (l ^ "misses") "count" (float_of_int s.Tmachine.Cache.misses))
    r.Tmachine.Machine.r_level_stats

(** Time a parse of [src] with the engine's Terra syntax hooks; the
    result is added to [lua.parse_ms]. *)
let lua_parse (eng : Engine.t) src =
  let ext_expr, ext_stat = Terra.Frontend.hooks eng.Engine.ctx in
  let _, t =
    Span.timed (fun () ->
        Span.span "lua.parse" (fun () ->
            Mlua.Parser.parse_string ~ext_expr ~ext_stat src))
  in
  add layer "lua.parse_ms" "ms" (ms t)

(* ------------------------------------------------------------------ *)
(* serve-mixed and serve-durable *)

type serve_sample = {
  dt : float;
  outcome : [ `Ok | `Failed ];
  ckpt : bool;  (** a checkpoint was written while handling it *)
  fps : int;  (** engine fingerprints this request cost *)
  attempts : int;
  retries : int;
  fuel : int;  (** retired VM instructions *)
}

let str_field k j = Option.value (Json.to_string_opt (Json.member k j)) ~default:""
let int_field k j = Option.value (Json.to_int_opt (Json.member k j)) ~default:(-1)

let check_response (r : Gen.request) (resp : Json.t) =
  let status = str_field "status" resp and out = str_field "output" resp in
  let code = str_field "code" resp and exit = int_field "exit" resp in
  let rollback = str_field "rollback" resp in
  match r.Gen.expect with
  | Gen.Ok_output want ->
      check
        (status = "ok" && exit = 0 && out = want)
        "%s request: status %s exit %d output %S, want %S" r.Gen.kind status
        exit out want
  | Gen.Fails want ->
      check
        (status = "error" && exit = 2 && code = want && rollback = "verified")
        "%s request: status %s code %s exit %d rollback %S, want %s/verified"
        r.Gen.kind status code exit rollback want

let journal_of (srv : Server.t) = srv.Server.journal

let handle_stream ?(ready = fun () -> true) ~srv ~next ~deadline ~min_count () =
  let durable = journal_of srv <> None in
  let samples = ref [] in
  let i = ref 0 in
  while !i < min_count || Span.now () < deadline || not (ready ()) do
    let r : Gen.request = next () in
    let ck0 = match journal_of srv with Some j -> j.Serve.Durable.checkpoints | None -> 0 in
    let resp, dt =
      Span.timed (fun () ->
          Span.with_req !i (fun () ->
              Span.span "serve.handle" (fun () -> Server.handle srv r.Gen.line)))
    in
    let ck1 = match journal_of srv with Some j -> j.Serve.Durable.checkpoints | None -> 0 in
    (match resp with
    | Some (j, `Continue) ->
        check_response r j;
        let failed_req = str_field "status" j <> "ok" in
        (* verify_rollback fingerprints before every request and again
           when it reports a rollback; a durable commit fingerprints the
           slot once more *)
        let rolled_back = Json.member "rollback" j <> Some Json.Null in
        let fps = 1 + (if rolled_back then 1 else 0) + if durable then 1 else 0 in
        samples :=
          {
            dt;
            outcome = (if failed_req then `Failed else `Ok);
            ckpt = ck1 > ck0;
            fps;
            attempts = int_field "attempts" j;
            retries = int_field "retries" j;
            fuel = int_field "fuel" j;
          }
          :: !samples;
        if !Span.on then begin
          (* each request starts a fresh profile slice on its engine *)
          let eng = srv.Server.pool.Serve.Pool.slots.(int_field "engine" j).Serve.Pool.eng in
          ignore (add_phases eng);
          match Json.of_string r.Gen.line with
          | Ok req -> lua_parse eng (str_field "src" req)
          | Error _ -> ()
        end
    | _ -> check false "request %d: no response" !i);
    incr i
  done;
  List.rev !samples

let serve_metrics ~srv ~(samples : serve_sample list) ~fp_ms =
  let lat = List.map (fun s -> ms s.dt) samples in
  let p50 = Span.median lat in
  let tail, pct = Span.tail lat in
  set e2e "op_ms" "ms" p50;
  set e2e "op_tail_ms" "ms" tail;
  Printf.printf "requests: %d, p50 %.1f ms, tail p%.0f %.1f ms\n" (List.length lat) p50 pct tail;
  let of_kind f = List.filter_map (fun s -> if f s then Some (ms s.dt) else None) samples in
  let handle_ok = of_kind (fun s -> s.outcome = `Ok && not s.ckpt) in
  let handle_failed = of_kind (fun s -> s.outcome = `Failed && not s.ckpt) in
  set layer "serve.handle_ok_ms" "ms" (Span.median handle_ok);
  set layer "serve.handle_failed_ms" "ms" (Span.median handle_failed);
  set layer "serve.handle_ckpt_ms" "ms" (Span.median (of_kind (fun s -> s.ckpt)));
  let n = float_of_int (List.length samples) in
  per_op (1.0 /. n);
  let fpr = float_of_int (List.fold_left (fun a s -> a + s.fps) 0 samples) /. n in
  set layer "state.fingerprints_per_req" "count" fpr;
  set layer "serve.state_share" "ratio" (fpr *. fp_ms /. mean lat);
  (* tie-out: how much of the median request the state operations
     explain — the fingerprints a median (ok) request pays *)
  let explained =
    100.0 *. float_of_int (if journal_of srv <> None then 2 else 1) *. fp_ms /. p50
  in
  set layer "serve.state_explained_pct" "%" explained;
  if !Span.on then
    Printf.printf "tie-out: the fingerprints of a median request (%.0f ms each) explain %.0f%% of its %.1f ms\n"
      fp_ms explained p50;
  set layer "supervise.attempts" "count"
    (float_of_int (List.fold_left (fun a s -> a + s.attempts) 0 samples) /. n);
  set layer "supervise.retries" "count"
    (float_of_int (List.fold_left (fun a s -> a + s.retries) 0 samples) /. n);
  set layer "vm.retired" "count"
    (float_of_int (List.fold_left (fun a s -> a + s.fuel) 0 samples) /. n);
  let status = Server.status_json srv in
  let recycles =
    match Json.member "pool" status with
    | Some pool -> (
        match Json.member "slots" pool with
        | Some (Json.List slots) ->
            List.fold_left (fun a s -> a + max 0 (int_field "recycles" s)) 0 slots
        | _ -> 0)
    | None -> 0
  in
  set layer "pool.recycles" "count" (float_of_int recycles)

let serve_make () = Server.make_engine Server.default_config ()

let serve_mixed ~seed ~seconds ~tiny =
  let srv = repeated_setup (fun () -> Server.create ()) in
  let next = Gen.request_stream seed in
  let t0 = Span.now () in
  let samples =
    handle_stream ~srv ~next ~deadline:(t0 +. seconds) ~min_count:(if tiny then 8 else 16) ()
  in
  let eng = srv.Server.pool.Serve.Pool.slots.(0).Serve.Pool.eng in
  let fp_ms = if !Span.on then state_ops ~make:serve_make eng else 0.0 in
  serve_metrics ~srv ~samples ~fp_ms;
  let failed_lat = List.filter_map (fun s -> if s.outcome = `Failed then Some (ms s.dt) else None) samples in
  set e2e "op2_ms" "ms" (Span.median failed_lat)

(* A short checkpoint interval, so a run writes several checkpoints; the
   stream stops with [suffix] committed requests after the last one, so
   recovery always replays the same number of requests. *)
let interval = 6
let suffix = 2

(* The durable stream, up to a closed journal.  Returns the session
   directory and every slot's fingerprint; the server itself is dropped
   here, so only the recovered pool is resident during recovery. *)
let durable_stream ~seed ~deadline ~tiny ~work =
  let srv, dir =
    repeated_setup
      ~discard:(fun ((s : Server.t), dir) ->
        Option.iter Serve.Durable.close (journal_of s);
        rm_rf dir)
      (fun () ->
        let srv = Server.create () and dir = fresh_dir work "session" in
        match Server.enable_durability srv ~dir ~interval () with
        | Ok () -> (srv, dir)
        | Error d -> failwith ("enable_durability: " ^ d.Terra.Diag.message))
  in
  let j = Option.get (journal_of srv) in
  let samples =
    handle_stream ~srv ~next:(Gen.request_stream seed) ~deadline:(deadline ())
      ~min_count:(if tiny then 4 else 8)
      ~ready:(fun () -> j.Serve.Durable.committed - j.Serve.Durable.barrier = suffix)
      ()
  in
  let live =
    Array.map (fun (s : Serve.Pool.slot) -> Engine.fingerprint s.Serve.Pool.eng) srv.Server.pool.Serve.Pool.slots
  in
  let eng = srv.Server.pool.Serve.Pool.slots.(0).Serve.Pool.eng in
  let fp_ms = if !Span.on then state_ops ~make:serve_make eng else 0.0 in
  serve_metrics ~srv ~samples ~fp_ms;
  set layer "durable.ckpts" "count" (float_of_int j.Serve.Durable.checkpoints);
  set layer "durable.wal_bytes" "bytes"
    (float_of_int (dir_bytes ~pred:(fun f -> Filename.check_suffix f ".log") dir));
  set layer "durable.ckpt_bytes" "bytes"
    (float_of_int (dir_bytes ~pred:(fun f -> String.length f > 5 && String.sub f 0 5 = "ckpt-") dir));
  Serve.Durable.close j;
  (dir, live)

let serve_durable ~seed ~seconds ~tiny ~work =
  (* the stream takes 40% of the window; three recoveries follow.  At
     about one request a second the stream then stops at 14 requests (two
     checkpoints plus the suffix) across a wide range of host speeds. *)
  let dir, live =
    durable_stream ~seed ~deadline:(fun () -> Span.now () +. (0.4 *. seconds)) ~tiny ~work
  in
  (* recovery, repeated on fresh copies of the session directory *)
  let times = ref [] in
  let k = ref 0 in
  while !k < (if tiny || !Span.on then 1 else 3) do
    let d = fresh_dir work "recover" in
    copy_dir dir d;
    Gc.full_major ();
    let res, dt =
      Span.timed (fun () -> Span.span "recover" (fun () -> Server.recover ~dir:d ()))
    in
    (match res with
    | Ok (rsrv, report) ->
        let got =
          Array.map (fun (s : Serve.Pool.slot) -> Engine.fingerprint s.Serve.Pool.eng) rsrv.Server.pool.Serve.Pool.slots
        in
        let replayed = int_field "replayed" report in
        check (got = live && replayed = suffix)
          "recovery %d: fingerprints %s live, %d replayed (want %d)" !k
          (if got = live then "match" else "differ from") replayed suffix;
        set layer "recover.replayed" "count" (float_of_int replayed);
        set layer "recover.barrier" "count" (float_of_int (int_field "barrier" report));
        Option.iter Serve.Durable.close (journal_of rsrv)
    | Error d -> check false "recovery %d: %s" !k d.Terra.Diag.message);
    times := ms dt :: !times;
    rm_rf d;
    incr k
  done;
  set e2e "op2_ms" "ms" (Span.median !times)

(* ------------------------------------------------------------------ *)
(* staging *)

let staging ~seed ~seconds ~tiny ~work =
  let nf = if tiny then 12 else 320 and steps = 24 in
  let src, want = Gen.staging_program ~seed ~nf ~steps in
  let profile = !Span.on in
  (* one terra_run: an engine create plus one program run *)
  let run_once ?ccache () =
    let eng, create = Span.timed (fun () -> Span.span "state.create" (fun () -> Terrastd.create ~profile ?ccache ())) in
    let (out, res), run =
      Span.timed (fun () -> Span.span "engine.run" (fun () -> Engine.run_capture_protected eng src))
    in
    (eng, out, res, create, run)
  in
  (* set-up: populate a cache directory with every generated function *)
  let dir =
    repeated_setup
      ~discard:rm_rf
      (fun () ->
        let dir = fresh_dir work "ccache" in
        let cc = Terra.Ccache.create ~dir () in
        let _, out, res, _, _ = run_once ~ccache:cc () in
        let c = Terra.Ccache.counts cc in
        set layer "ccache.stores" "count" (float_of_int c.Terra.Ccache.c_stores);
        check (Result.is_ok res && out = want && c.Terra.Ccache.c_stores = nf)
          "staging set-up: output %S want %S, %d stores for %d functions" out want
          c.Terra.Ccache.c_stores nf;
        dir)
  in
  let cold = ref [] and warm = ref [] in
  let deadline = Span.now () +. seconds in
  let order = Random.State.bool (Gen.rng seed 5) in
  let cold_run () =
    let _, out, res, c, r = run_once () in
    check (Result.is_ok res && out = want) "cold run: %S want %S" out want;
    cold := ms (c +. r) :: !cold
  in
  let warm_run () =
    let cc = Terra.Ccache.create ~dir () in
    let _, out, res, c0, r = run_once ~ccache:cc () in
    check (Result.is_ok res && out = want) "warm run: %S want %S" out want;
    let c = Terra.Ccache.counts cc in
    check (c.Terra.Ccache.c_hits = nf && c.Terra.Ccache.c_bad_entries = 0)
      "warm run: %d cache hits for %d functions" c.Terra.Ccache.c_hits nf;
    warm := ms (c0 +. r) :: !warm;
    c
  in
  let n = ref 0 in
  while !n < (if tiny then 1 else 4) || Span.now () < deadline do
    Gc.full_major ();
    if order then cold_run ();
    let c = warm_run () in
    if not order then cold_run ();
    if !Span.on && !n = 0 then begin
      set layer "ccache.hits" "count" (float_of_int c.Terra.Ccache.c_hits);
      set layer "ccache.misses" "count" (float_of_int c.Terra.Ccache.c_misses);
      set layer "ccache.bad_entries" "count" (float_of_int c.Terra.Ccache.c_bad_entries);
      set layer "ccache.dir_bytes" "bytes" (float_of_int (dir_bytes dir))
    end;
    incr n
  done;
  let tail, _ = Span.tail !cold in
  set e2e "op_ms" "ms" (Span.quantile 0.9 !cold);
  set e2e "op_tail_ms" "ms" tail;
  set e2e "op2_ms" "ms" (Span.quantile 0.9 !warm);
  Printf.printf
    "staging: %d functions, %d cold runs (p50 %.1f ms, p90 %.1f ms), %d warm runs (p50 %.1f ms, p90 %.1f ms)\n"
    nf (List.length !cold) (Span.median !cold) (Span.quantile 0.9 !cold) (List.length !warm)
    (Span.median !warm) (Span.quantile 0.9 !warm);
  if !Span.on then begin
    (* the per-layer split of one cold run, on a fresh profiled engine *)
    let eng, _, _, _, run = run_once () in
    let jit = add_phases eng in
    add_topt eng;
    set layer "lua.self_ms" "ms" (ms run -. jit);
    lua_parse eng src;
    set layer "vm.retired" "count" (float_of_int (Engine.fuel_used eng));
    ignore (state_ops ~make:(fun () -> Terrastd.create ()) eng)
  end

(* ------------------------------------------------------------------ *)
(* kernels *)

(* Pinned behaviour, identical to BENCH_10.json: tuned DGEMM n=192 and
   blocked scalar DGEMM n=96 on the scaled Ivy Bridge model.  The cache
   statistics (hits, misses per level) and the mandelbrot figures are
   pinned at the commit that introduced this benchmark.  Cache statistics
   are pinned for the first call on a fresh machine only: [Cache.reset]
   clears tags and counters but not LRU ages, so later calls on the same
   machine evict differently (the modeled time is compute-bound and does
   not move). *)
let vec_params = { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 }
let vec_n = 192
let vec_retired = 9_509_240
let vec_gflops = "25.114847"
let scalar_n = 96
let scalar_retired = 12_052_136
let scalar_gflops = "2.298131"
let mandel_checksum = "173124\n"
let mandel_retired = 2_875_584
let vec_cache = [ (1371001, 66695); (29173, 37522); (28210, 9312) ]
let scalar_cache = [ (1831612, 20804); (12670, 8134); (4678, 3456) ]

type gemm = {
  g_name : string;
  g_fn : Terra.Func.t;
  g_m : Tuner.Gemm.matrices;
  g_ref : float array;
  g_retired : int;
  g_gflops : string;
  g_cache : (int * int) list;
  mutable g_calls : int;
}

(* Each kernel runs on an engine of its own: the cache model keeps LRU
   history across [Machine.measure] resets, so a kernel's modeled cache
   statistics are reproducible only when nothing else runs on its
   machine between its calls. *)
let kernel_engine ?mem_bytes () =
  let machine =
    Tmachine.Machine.create (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
  in
  Terrastd.create ~machine ?mem_bytes ~profile:!Span.on ()

let make_gemm ~seed ctx name fn n ~retired ~gflops ~cache =
  let elem = Terra.Types.double in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
  let a, b = Gen.matrix_values ~seed ~n in
  Array.iteri (fun i x -> Tuner.Gemm.set_elem ctx ~elem m.Tuner.Gemm.ma i x) a;
  Array.iteri (fun i x -> Tuner.Gemm.set_elem ctx ~elem m.Tuner.Gemm.mb i x) b;
  Terra.Jit.ensure_compiled fn;
  { g_name = name; g_fn = fn; g_m = m; g_ref = Tuner.Gemm.reference ctx ~elem m;
    g_retired = retired; g_gflops = gflops; g_cache = cache; g_calls = 0 }

let run_gemm (eng : Engine.t) g =
  let ctx = eng.Engine.ctx in
  let vm = ctx.Terra.Context.vm in
  let s0 = Tvm.Vm.steps vm in
  let w0 = Gc.minor_words () in
  let (gflops, report), dt =
    Span.timed (fun () -> Span.span "vm.call" (fun () -> Tuner.Gemm.run_gemm ctx g.g_fn g.g_m))
  in
  let words = Gc.minor_words () -. w0 in
  let retired = Tvm.Vm.steps vm - s0 in
  let err = Tuner.Gemm.max_error ctx ~elem:Terra.Types.double g.g_m g.g_ref in
  let cache =
    List.map
      (fun (_, (s : Tmachine.Cache.level_stats)) -> (s.Tmachine.Cache.hits, s.Tmachine.Cache.misses))
      report.Tmachine.Machine.r_level_stats
  in
  let gf = Printf.sprintf "%.6f" gflops in
  let first = g.g_calls = 0 in
  g.g_calls <- g.g_calls + 1;
  check
    (retired = pinned (g.g_name ^ ".retired") g.g_retired
    && gf = pinned_s (g.g_name ^ ".gflops") g.g_gflops
    && ((not first) || cache = g.g_cache)
    && err < 1e-9)
    "%s: retired %d (pinned %d), %s GFLOPS (pinned %s), cache %s, max error %g"
    g.g_name retired g.g_retired gf g.g_gflops
    (String.concat " " (List.map (fun (h, m) -> Printf.sprintf "%d/%d" h m) cache))
    err;
  (dt, retired, words, (gflops, report))

let kernels ~seed ~seconds ~tiny =
  let setup () =
    let elem = Terra.Types.double in
    let gemm_engine () = kernel_engine ~mem_bytes:(16 lsl 20) () in
    let vec =
      let e = gemm_engine () in
      let ctx = e.Engine.ctx in
      let kernel = Tuner.Gemm.genkernel ctx ~elem vec_params in
      ( e,
        make_gemm ~seed ctx "dgemm_vec"
          (Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:vec_params.Tuner.Gemm.nb)
          vec_n ~retired:vec_retired ~gflops:vec_gflops ~cache:vec_cache )
    in
    let scalar =
      let e = gemm_engine () in
      let ctx = e.Engine.ctx in
      ( e,
        make_gemm ~seed ctx "dgemm_scalar"
          (Tuner.Gemm.blocked_scalar ctx ~elem ~nb:24)
          scalar_n ~retired:scalar_retired ~gflops:scalar_gflops ~cache:scalar_cache )
    in
    let eng = kernel_engine () in
    (match Engine.run_protected eng (Gen.mandel_def ^ "escape_time(0.0, 0.0)") with
    | Ok _ -> ()
    | Error d -> failwith ("mandelbrot definition: " ^ d.Terra.Diag.message));
    (eng, vec, scalar)
  in
  let eng, (vec_eng, vec), (scalar_eng, scalar) = repeated_setup setup in
  let mandel_src = Gen.mandel_program (Gen.mandel_rows seed) in
  let vm = eng.Engine.ctx.Terra.Context.vm in
  let mandel () =
    let s0 = Tvm.Vm.steps vm in
    let (out, res), dt =
      Span.timed (fun () -> Span.span "engine.run" (fun () -> Engine.run_capture_protected eng mandel_src))
    in
    let retired = Tvm.Vm.steps vm - s0 in
    check
      (Result.is_ok res && out = pinned_s "mandel.checksum" mandel_checksum
      && retired = pinned "mandel.retired" mandel_retired)
      "mandelbrot: checksum %S (pinned %S), retired %d (pinned %d)" out mandel_checksum
      retired mandel_retired;
    dt
  in
  let vec_t = ref [] and scalar_t = ref [] and mandel_t = ref [] in
  let vm_time = ref 0.0 and vm_retired = ref 0 and vm_words = ref 0.0 in
  let last_report = ref None in
  let st = Gen.rng seed 6 in
  let deadline = Span.now () +. seconds in
  let n = ref 0 in
  (* rounds of three vector DGEMMs, one scalar DGEMM and nine mandelbrot
     passes, in seeded order: about 60% of the time goes to the vector
     DGEMM, so a run has some twenty of them for its 90th percentile, and
     the rest leaves enough mandelbrot passes for a tail.  Past the
     minimum number of rounds, the run ends at the first operation that
     would start after the deadline. *)
  let min_rounds = if tiny then 1 else 3 in
  let running () = !n < min_rounds || Span.now () < deadline in
  while running () do
    let ops =
      [| `Vec; `Vec; `Vec; `Scalar; `Mandel; `Mandel; `Mandel; `Mandel; `Mandel; `Mandel;
         `Mandel; `Mandel; `Mandel |]
    in
    Gen.shuffle st ops;
    Array.iter
      (fun op ->
        if running () then
          match op with
          | `Vec ->
              let dt, r, w, rep = run_gemm vec_eng vec in
              vec_t := ms dt :: !vec_t;
              vm_time := !vm_time +. dt;
              vm_retired := !vm_retired + r;
              vm_words := !vm_words +. w;
              last_report := Some rep
          | `Scalar ->
              let dt, _, _, _ = run_gemm scalar_eng scalar in
              scalar_t := ms dt :: !scalar_t
          | `Mandel ->
              let dt = mandel () in
              mandel_t := ms dt :: !mandel_t)
      ops;
    incr n
  done;
  let p50 = Span.median !mandel_t in
  let tail, pct = Span.tail !mandel_t in
  set e2e "op_ms" "ms" (Span.quantile 0.9 !mandel_t);
  set e2e "op_tail_ms" "ms" tail;
  set e2e "op2_ms" "ms" (Span.quantile 0.9 !vec_t);
  Printf.printf
    "kernels: %d mandelbrot passes (p50 %.1f ms, p90 %.1f ms, p%.0f %.1f ms), %d vector DGEMM (p50 %.1f ms, p90 %.1f ms), %d scalar DGEMM (p50 %.1f ms)\n"
    (List.length !mandel_t) p50 (Span.quantile 0.9 !mandel_t) pct tail (List.length !vec_t) (Span.median !vec_t)
    (Span.quantile 0.9 !vec_t) (List.length !scalar_t) (Span.median !scalar_t);
  if !Span.on then begin
    set layer "kernels.dgemm_scalar_ms" "ms" (Span.median !scalar_t);
    set layer "vm.retired" "count" (float_of_int vec.g_retired);
    set layer "vm.minstr_per_s" "M/s" (float_of_int !vm_retired /. !vm_time /. 1e6);
    set layer "vm.minor_words_per_instr" "words" (!vm_words /. float_of_int !vm_retired);
    Option.iter (fun (gflops, r) -> set_machine r; set layer "tmachine.gflops" "GFLOPS" gflops) !last_report;
    (* the same 9,600 points driven from OCaml straight into Vm.call:
       the difference is the Lua -> Terra call boundary *)
    let fid =
      match Engine.get_global eng "escape_time" |> Terra.Func.unwrap_opt with
      | Some f -> Terra.Jit.vm_handle f
      | None -> failwith "escape_time is not a terra function"
    in
    let rows = Gen.mandel_rows seed in
    let direct () =
      let sum = ref 0 in
      Array.iter
        (fun y ->
          for x = 0 to Gen.mandel_w - 1 do
            let cr, ci = Gen.mandel_point x y in
            match Tvm.Vm.call vm fid [| Tvm.Vm.VF cr; Tvm.Vm.VF ci |] with
            | Tvm.Vm.VI v -> sum := !sum + Int64.to_int v
            | _ -> ()
          done)
        rows;
      !sum
    in
    let direct_t = ref [] in
    for _ = 1 to 5 do
      let sum, dt = Span.timed (fun () -> Span.span "vm.call" direct) in
      check (Printf.sprintf "%d\n" sum = mandel_checksum)
        "direct mandelbrot: checksum %d (pinned %S)" sum mandel_checksum;
      direct_t := ms dt :: !direct_t
    done;
    let calls = float_of_int (Gen.mandel_w * Gen.mandel_h) in
    set layer "ffi.call_overhead_us" "us"
      ((Span.median !mandel_t -. Span.median !direct_t) *. 1000.0 /. calls);
    (* compile-phase and Lua split of one profiled mandelbrot pass *)
    Tprof.Probe.reset (Engine.probe eng);
    let dt = mandel () in
    let jit = add_phases eng in
    set layer "lua.self_ms" "ms" (ms dt -. jit);
    add_topt vec_eng;
    lua_parse eng mandel_src;
    ignore (state_ops ~make:kernel_engine eng)
  end

(* ------------------------------------------------------------------ *)
(* Entry point *)

let workloads = [ "serve-mixed"; "serve-durable"; "staging"; "kernels" ]

let run_workload name ~seed ~seconds ~tiny ~work =
  match name with
  | "serve-mixed" -> serve_mixed ~seed ~seconds ~tiny
  | "serve-durable" -> serve_durable ~seed ~seconds ~tiny ~work
  | "staging" -> staging ~seed ~seconds ~tiny ~work
  | "kernels" -> kernels ~seed ~seconds ~tiny
  | w -> failwith ("unknown workload " ^ w)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measurement window");
      ("--trace", Arg.Set_int trace, " 1: traced run, report per-layer metrics");
      ("--tiny", Arg.Set tiny, " smallest sizes (tests)");
      ("--perturb", Arg.Set_string perturb, " offset one pinned value (tests)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  let work = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  let go seconds =
    let gc0 = Gc.quick_stat () in
    run_workload !workload ~seed:!seed ~seconds ~tiny:!tiny ~work;
    let gc1 = Gc.quick_stat () in
    set layer "gc.minor_words" "words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    set layer "gc.major_collections" "count"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    set layer "gc.top_heap_mb" "MB"
      (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
  in
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  if !trace = 0 then begin
    go !seconds;
    set e2e "peak_rss_mb" "MB" (Span.peak_rss_mb ())
  end
  else begin
    (* the untraced and the traced halves share the window; their
       difference on the main operation is the tracing overhead *)
    setup_reps := 1;
    go (!seconds /. 2.0);
    let plain = List.assoc "op_ms" !e2e |> fst in
    Span.on := true;
    go (!seconds /. 2.0);
    let traced = List.assoc "op_ms" !e2e |> fst in
    set layer "trace.overhead_pct" "%" (100.0 *. (traced -. plain) /. plain);
    let self name = List.fold_left (fun a (n, (_, _, s)) -> if n = name then a +. s else a) 0.0 (Span.by_name ()) in
    set layer "self.serve_ms" "ms" (ms (self "serve.handle"));
    set layer "self.state_ms" "ms"
      (ms (List.fold_left (fun a n -> a +. self n) 0.0
             [ "state.create"; "state.fingerprint"; "state.snap"; "state.restore" ]));
    set layer "self.lua_ms" "ms" (ms (self "engine.run" +. self "lua.parse"));
    set layer "self.vm_ms" "ms" (ms (self "vm.call"));
    set layer "self.recover_ms" "ms" (ms (self "recover"));
    print_endline "traced half: span            count   total ms    self ms";
    List.iter
      (fun (n, (c, tot, sf)) -> Printf.printf "  %-24s %8d %10.1f %10.1f\n" n c (ms tot) (ms sf))
      (Span.by_name ());
    mkdir_p out_dir;
    Span.write
      (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed))
  end;
  let metrics =
    if !trace = 0 then
      List.map (fun n -> (n, List.assoc n !e2e))
        [ "setup_s"; "peak_rss_mb"; "op_ms"; "op_tail_ms"; "op2_ms" ]
    else
      List.map
        (fun (n, unit) ->
          (n, Option.value (List.assoc_opt n !layer) ~default:(0.0, unit)))
        layer_metrics
  in
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v) else Json.Float v in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int (max 1 !attempted));
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, (v, u)) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str u) ]))
                   metrics) );
          ]))

let () = main ()
