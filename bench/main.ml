(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the modeled machine. See DESIGN.md section 4
   for the experiment index and EXPERIMENTS.md for paper-vs-measured.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe dgemm ...  -- a subset
     dune exec bench/main.exe bechamel   -- wall-time microbenchmarks

   The machine model is the i7-3720QM-like configuration with caches
   scaled 4x down; workloads are scaled to preserve footprint/cache
   ratios (DESIGN.md substitutions). *)

open Terra

let line = String.make 72 '-'
let section title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Machine-readable results: --json out.json collects one row per
   measured point (GFLOPS and/or retired VM instructions) so future
   runs have a perf trajectory to diff against. *)

type json_row = {
  jr_experiment : string;
  jr_series : string;
  jr_n : int;  (** problem size; 0 when not applicable *)
  jr_gflops : float option;
  jr_fuel : int option;  (** retired VM instructions *)
}

let json_rows : json_row list ref = ref []

let record ~experiment ~series ?(n = 0) ?gflops ?fuel () =
  json_rows :=
    { jr_experiment = experiment; jr_series = series; jr_n = n;
      jr_gflops = gflops; jr_fuel = fuel }
    :: !json_rows

(* Every context made by [fresh_ctx] runs with its Tprof probe on and is
   registered under the experiment that created it; --json emits one
   profile per experiment so each benchmark row can be traced back to
   where its instructions were spent. *)
let current_experiment = ref ""
let profiled_ctxs : (string * Context.t) list ref = ref []

(* Host wall-clock per experiment (CLOCK_MONOTONIC, ns): the modeled
   GFLOPS/fuel numbers are deterministic, so this is the only place the
   harness's real speed shows up — the trajectory the committed
   BENCH_*.json snapshots track. *)
let wall_ns : (string * int64) list ref = ref []

let record_wall ~experiment ns =
  wall_ns := (experiment, ns) :: !wall_ns

let register_profile ctx =
  if !current_experiment <> "" then
    profiled_ctxs := (!current_experiment, ctx) :: !profiled_ctxs

let profiles_json () =
  (* first-registered context per experiment, in registration order *)
  let seen = Hashtbl.create 8 in
  let ordered =
    List.fold_left
      (fun acc (name, ctx) ->
        if Hashtbl.mem seen name then acc
        else begin
          Hashtbl.replace seen name ();
          (name, ctx) :: acc
        end)
      []
      (List.rev !profiled_ctxs)
  in
  List.rev_map
    (fun (name, ctx) ->
      (name, Tprof.Report.to_json_value (Context.profile ctx)))
    ordered

let write_json path =
  let module J = Tprof.Json in
  let row r =
    J.Obj
      ([
         ("experiment", J.Str r.jr_experiment);
         ("series", J.Str r.jr_series);
         ("n", J.Int r.jr_n);
       ]
      @ (match r.jr_gflops with Some g -> [ ("gflops", J.Float g) ] | None -> [])
      @ match r.jr_fuel with Some f -> [ ("fuel", J.Int f) ] | None -> [])
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "terra-bench-3");
        ("results", J.List (List.rev_map row !json_rows));
        ( "wall_ns",
          J.Obj
            (List.rev_map (fun (name, ns) -> (name, J.Int (Int64.to_int ns)))
               !wall_ns) );
        ("profiles", J.Obj (profiles_json ()));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %d benchmark rows to %s\n" (List.length !json_rows) path

let fresh_ctx ?opt_level () =
  let machine =
    Tmachine.Machine.create
      (Tmachine.Config.scaled Tmachine.Config.ivybridge_like)
  in
  let ctx =
    Context.create ~mem_bytes:(420 * 1024 * 1024) ~machine ?opt_level ()
  in
  (* profile every benchmark context: counters are virtual-tick, so this
     cannot change the modeled GFLOPS/fuel numbers *)
  Tprof.Probe.set_on (Context.probe ctx) true;
  register_profile ctx;
  (ctx, machine)

(* ------------------------------------------------------------------ *)
(* E1/E2/E3: Figure 6 — GEMM GFLOPS vs matrix size *)

let gemm_sizes = [ 96; 192; 288; 384 ]

let footprint_mb n bytes =
  float_of_int (3 * n * n * bytes) /. 1024.0 /. 1024.0

let run_gemm_series ?(experiment = "gemm") ctx ~elem name make_fn sizes =
  let pts =
    List.map
      (fun n ->
        let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
        Tuner.Gemm.fill_matrices ctx ~elem m;
        let f = make_fn n in
        let s0 = Tvm.Vm.steps ctx.Context.vm in
        let gflops, _ = Tuner.Gemm.run_gemm ctx f m in
        let fuel = Tvm.Vm.steps ctx.Context.vm - s0 in
        Tuner.Gemm.free_matrices ctx m;
        record ~experiment ~series:name ~n ~gflops ~fuel ();
        (n, gflops))
      sizes
  in
  (name, pts)

let print_gemm_table ~elem series =
  let bytes = Types.sizeof elem in
  Printf.printf "%-22s" "footprint (scaled MB)";
  List.iter (fun n -> Printf.printf "%10.2f" (footprint_mb n bytes)) gemm_sizes;
  Printf.printf "\n%-22s" "  (paper-scale MB)";
  List.iter
    (fun n -> Printf.printf "%10.2f" (footprint_mb n bytes *. 16.0))
    gemm_sizes;
  print_newline ();
  List.iter
    (fun (name, pts) ->
      Printf.printf "%-22s" name;
      List.iter
        (fun n ->
          match List.assoc_opt n pts with
          | Some g -> Printf.printf "%10.2f" g
          | None -> Printf.printf "%10s" "-")
        gemm_sizes;
      print_newline ())
    series

let dgemm () =
  section "E1+E3 (Figure 6a): DGEMM GFLOPS vs matrix size";
  let ctx, machine = fresh_ctx () in
  let elem = Types.double in
  let peak =
    Tmachine.Config.peak_flops machine.Tmachine.Machine.config ~elem_bytes:8
    /. 1e9
  in
  Printf.printf "auto-tuning (the paper's ~200-line search)...\n%!";
  let tuned = Tuner.Search.search ~test_n:96 ctx ~elem () in
  let best = Tuner.Search.best tuned in
  Format.printf "tuner winner: %a@." Tuner.Search.pp_candidate best;
  let atlas = Tuner.Search.search ~test_n:96 ~no_spill:true ctx ~elem () in
  let abest = Tuner.Search.best atlas in
  Format.printf "ATLAS-model (no-spill) winner: %a@." Tuner.Search.pp_candidate
    abest;
  let tuned_driver p ~no_spill () =
    let kernel = Tuner.Gemm.genkernel ctx ~elem ~no_spill p in
    Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:p.Tuner.Gemm.nb
  in
  let series =
    [
      run_gemm_series ~experiment:"dgemm" ctx ~elem "Naive"
        (fun _ -> Tuner.Gemm.naive ctx ~elem)
        gemm_sizes;
      run_gemm_series ~experiment:"dgemm" ctx ~elem "Blocked (cache only)"
        (fun _ -> Tuner.Gemm.blocked_scalar ctx ~elem ~nb:24)
        gemm_sizes;
      run_gemm_series ~experiment:"dgemm" ctx ~elem "Terra (auto-tuned)"
        (fun _ -> tuned_driver best.Tuner.Search.cparams ~no_spill:false ())
        gemm_sizes;
      run_gemm_series ~experiment:"dgemm" ctx ~elem "ATLAS (model)"
        (fun _ -> tuned_driver abest.Tuner.Search.cparams ~no_spill:true ())
        gemm_sizes;
    ]
  in
  print_gemm_table ~elem series;
  Printf.printf "%-22s%10.1f (theoretical)\n" "Peak" peak;
  let at name = List.assoc name series in
  let last pts = snd (List.nth pts (List.length pts - 1)) in
  let naive = last (at "Naive")
  and blocked = last (at "Blocked (cache only)")
  and terra = last (at "Terra (auto-tuned)")
  and atlasg = last (at "ATLAS (model)") in
  Printf.printf "\nclaims (paper -> measured):\n";
  Printf.printf "  blocked < 7%% of peak:       %.1f%% %s\n"
    (100. *. blocked /. peak)
    (if blocked /. peak < 0.075 then "[ok]" else "[off]");
  Printf.printf "  terra > 60%% of peak:        %.1f%% %s\n"
    (100. *. terra /. peak)
    (if terra /. peak > 0.6 then "[ok]" else "[off]");
  Printf.printf "  terra within 20%% of ATLAS:  %.1f%% below %s\n"
    (100. *. (atlasg -. terra) /. atlasg)
    (if terra >= 0.8 *. atlasg then "[ok]" else "[off]");
  Printf.printf
    "  naive much slower than best: %.0fx (paper: 65x at footprints past our \
     scaled sweep)\n"
    (terra /. naive)

let sgemm () =
  section "E2 (Figure 6b): SGEMM GFLOPS vs matrix size";
  let ctx, machine = fresh_ctx () in
  let elem = Types.float_ in
  let peak =
    Tmachine.Config.peak_flops machine.Tmachine.Machine.config ~elem_bytes:4
    /. 1e9
  in
  let tuned = Tuner.Search.search ~test_n:96 ctx ~elem () in
  let best = Tuner.Search.best tuned in
  let atlas = Tuner.Search.search ~test_n:96 ~no_spill:true ctx ~elem () in
  let abest = Tuner.Search.best atlas in
  Format.printf "tuner winner: %a@." Tuner.Search.pp_candidate best;
  let series =
    [
      run_gemm_series ~experiment:"sgemm" ctx ~elem "Terra (auto-tuned)"
        (fun _ ->
          let kernel =
            Tuner.Gemm.genkernel ctx ~elem best.Tuner.Search.cparams
          in
          Tuner.Gemm.blocked_driver ctx ~elem ~kernel
            ~nb:best.Tuner.Search.cparams.Tuner.Gemm.nb)
        gemm_sizes;
      run_gemm_series ~experiment:"sgemm" ctx ~elem "ATLAS (fixed, model)"
        (fun _ ->
          let kernel =
            Tuner.Gemm.genkernel ctx ~elem ~no_spill:true
              abest.Tuner.Search.cparams
          in
          Tuner.Gemm.blocked_driver ctx ~elem ~kernel
            ~nb:abest.Tuner.Search.cparams.Tuner.Gemm.nb)
        gemm_sizes;
      run_gemm_series ~experiment:"sgemm" ctx ~elem "ATLAS (orig., model)"
        (fun _ ->
          (* an SSE-width kernel with stray AVX touches: every inner
             iteration pays the vector-unit transition penalty *)
          let p = { abest.Tuner.Search.cparams with Tuner.Gemm.v = 4 } in
          let kernel =
            Tuner.Gemm.genkernel ctx ~elem ~no_spill:true ~legacy_mix:true p
          in
          Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:p.Tuner.Gemm.nb)
        gemm_sizes;
    ]
  in
  print_gemm_table ~elem series;
  Printf.printf "%-22s%10.1f (theoretical)\n" "Peak" peak;
  let at name = List.assoc name series in
  let avg pts =
    List.fold_left (fun acc (_, g) -> acc +. g) 0.0 pts
    /. float_of_int (List.length pts)
  in
  Printf.printf
    "\nclaim: Terra ~5x faster than original ATLAS (SSE/AVX mixing): %.1fx \
     (mean across sizes)\n"
    (avg (at "Terra (auto-tuned)") /. avg (at "ATLAS (orig., model)"))

(* ------------------------------------------------------------------ *)
(* E9/E10: Figure 5 — kernel generator correctness and parameter sweep *)

let kernelsweep () =
  section "E9 (Figure 5): L1 kernel generator - correctness & sensitivity";
  let ctx, _ = fresh_ctx () in
  let elem = Types.double in
  let n = 96 in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let reference = Tuner.Gemm.reference ctx ~elem m in
  Printf.printf "%-28s %10s %12s\n" "params" "GFLOPS" "max error";
  List.iter
    (fun p ->
      let kernel = Tuner.Gemm.genkernel ctx ~elem p in
      let driver =
        Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:p.Tuner.Gemm.nb
      in
      let gflops, _ = Tuner.Gemm.run_gemm ctx driver m in
      let err = Tuner.Gemm.max_error ctx ~elem m reference in
      Format.printf "%-28s %10.2f %12.2e %s@."
        (Format.asprintf "%a" Tuner.Gemm.pp_params p)
        gflops err
        (if err < 1e-9 then "[ok]" else "[WRONG]"))
    [
      { Tuner.Gemm.nb = 16; rm = 1; rn = 1; v = 2 };
      { Tuner.Gemm.nb = 24; rm = 2; rn = 1; v = 4 };
      { Tuner.Gemm.nb = 32; rm = 2; rn = 2; v = 4 };
      { Tuner.Gemm.nb = 32; rm = 4; rn = 2; v = 4 };
      { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 };
      { Tuner.Gemm.nb = 48; rm = 6; rn = 2; v = 4 };
      { Tuner.Gemm.nb = 48; rm = 8; rn = 2; v = 4 };
    ];
  Tuner.Gemm.free_matrices ctx m;
  let wc f =
    let ic = open_in f in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> close_in ic);
    !n
  in
  (try
     Printf.printf
       "\nE10: auto-tuner size: gemm.ml=%d + search.ml=%d lines (paper: ~200 \
        lines of Lua/Terra)\n"
       (wc "lib/tuner/gemm.ml") (wc "lib/tuner/search.ml")
   with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* E4/E5/E6: Figure 8 — Orion schedules *)

module W = Orion.Workloads

let orion_table title rows =
  Printf.printf "%s\n" title;
  let base = snd (List.hd rows) in
  List.iter
    (fun (name, cyc) ->
      Printf.printf "  %-34s %14.0f cycles   %5.2fx\n" name cyc (base /. cyc))
    rows

let area () =
  section "E5 (Figure 8, bottom): separable 5x5 area filter";
  let ctx, machine = fresh_ctx () in
  let w = 768 and h = 768 in
  let run cfg =
    let c = W.compile_area ctx cfg ~w ~h in
    let inb = Orion.Codegen.alloc_io c in
    Orion.Buffer.fill inb (fun x y ->
        sin (float_of_int x /. 5.0) +. cos (float_of_int y /. 7.0));
    let out = Orion.Codegen.alloc_io c in
    Orion.Codegen.run c ~inputs:[ inb ] ~output:out;
    let (), rep =
      Tmachine.Machine.measure machine (fun () ->
          Orion.Codegen.run c ~inputs:[ inb ] ~output:out)
    in
    (rep.Tmachine.Machine.r_cycles, Orion.Buffer.checksum out)
  in
  let c0, k0 = run W.scalar_mat in
  let c1, k1 = run (W.vec_mat 8) in
  let c2, k2 = run (W.vec_lb 8) in
  orion_table
    "paper: matching C 1.1x / +vectorization 2.8x / +line buffering 3.4x"
    [
      ("Reference C (scalar, materialized)", c0);
      ("+ Vectorization (8-wide)", c1);
      ("+ Line buffering", c2);
    ];
  Printf.printf "  checksums: %.2f / %.2f / %.2f %s\n" k0 k1 k2
    (if k0 = k1 && k1 = k2 then "[identical]" else "[DIFFER]")

let fluid () =
  section "E4 (Figure 8, top): fluid simulation (Stam, Gauss-Jacobi)";
  let ctx, machine = fresh_ctx () in
  let w = 768 and h = 768 in
  let run cfg =
    let f = W.create_fluid ctx cfg ~w ~h in
    W.seed_fluid f;
    W.step_fluid f ~jacobi_iters:2 (* warm compile *);
    W.seed_fluid f;
    let (), rep =
      Tmachine.Machine.measure machine (fun () ->
          W.step_fluid f ~jacobi_iters:8)
    in
    (rep.Tmachine.Machine.r_cycles, W.density_checksum f)
  in
  let c0, k0 = run W.scalar_mat in
  let c1, k1 = run (W.vec_mat 8) in
  let c2, k2 = run (W.vec_lb 8) in
  orion_table "paper: matching 1x / +vectorization 1.9x / +line buffering 2.3x"
    [
      ("Reference C (scalar, materialized)", c0);
      ("+ Vectorization (8-wide)", c1);
      ("+ Line buffering (paired Jacobi)", c2);
    ];
  Printf.printf "  density checksums: %.4f / %.4f / %.4f %s\n" k0 k1 k2
    (if k0 = k1 && k1 = k2 then "[identical]" else "[DIFFER]")

let pipeline () =
  section "E6 (Section 6.2): 4-kernel point-wise pipeline, inlining";
  let ctx, machine = fresh_ctx () in
  let w = 768 and h = 768 in
  let run inline_all =
    let c = W.compile_pointwise ctx ~inline_all ~vec:1 ~w ~h () in
    let inb = Orion.Codegen.alloc_io c in
    Orion.Buffer.fill inb (fun x y ->
        0.5 +. (0.3 *. sin (float_of_int (x + (2 * y)) /. 10.0)));
    let out = Orion.Codegen.alloc_io c in
    Orion.Codegen.run c ~inputs:[ inb ] ~output:out;
    let (), rep =
      Tmachine.Machine.measure machine (fun () ->
          Orion.Codegen.run c ~inputs:[ inb ] ~output:out)
    in
    (rep.Tmachine.Machine.r_cycles, Orion.Buffer.checksum out)
  in
  let c0, k0 = run false in
  let c1, k1 = run true in
  orion_table
    "paper: inlining the four kernels cuts memory traffic 4x => 3.8x speedup"
    [ ("Materialized (library style)", c0); ("Inlined (one pass)", c1) ];
  Printf.printf "  checksums: %.2f / %.2f %s\n" k0 k1
    (if k0 = k1 then "[identical]" else "[DIFFER]")

(* ------------------------------------------------------------------ *)
(* E7: Figure 9 — AoS vs SoA *)

let layout () =
  section "E7 (Figure 9): mesh kernels, array-of-structs vs struct-of-arrays";
  let ctx, _ = fresh_ctx () in
  let nverts = 300_000 and nfaces = 600_000 in
  Printf.printf "%d vertices, %d faces (synthetic, mostly-coherent walk)\n"
    nverts nfaces;
  Printf.printf "%-24s %18s %18s\n" "Benchmark" "Array-of-Structs"
    "Struct-of-Arrays";
  let results =
    List.map
      (fun layout ->
        let m = Datalayout.Mesh.build ctx ~layout ~nverts ~nfaces in
        let (), rn = Datalayout.Mesh.run_normals ctx m in
        let (), rt = Datalayout.Mesh.run_translate ctx m in
        let cs = Datalayout.Mesh.checksum ctx m in
        (rn.Tmachine.Machine.r_gbps, rt.Tmachine.Machine.r_gbps, cs))
      [ Datalayout.Datatable.AoS; Datalayout.Datatable.SoA ]
  in
  match results with
  | [ (an, at, acs); (sn, st, scs) ] ->
      Printf.printf "%-24s %13.2f GB/s %13.2f GB/s\n" "Calc. vertex normals" an
        sn;
      Printf.printf "%-24s %13.2f GB/s %13.2f GB/s\n" "Translate positions" at
        st;
      Printf.printf
        "paper: normals 3.42 vs 2.20 (AoS +55%%); translate 9.90 vs 14.2 (SoA \
         +43%%)\n";
      Printf.printf "measured: normals AoS %+.0f%%; translate SoA %+.0f%%\n"
        (100. *. ((an /. sn) -. 1.))
        (100. *. ((st /. at) -. 1.));
      Printf.printf "checksums: %.1f vs %.1f %s\n" acs scs
        (if Float.abs (acs -. scs) <= 1e-3 *. Float.abs acs then "[identical]"
         else "[DIFFER]")
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* E8: Section 6.3.1 — class-system dispatch overhead *)

let classes () =
  section "E8 (Section 6.3.1): method invocation overhead of the class system";
  let ctx, machine = fresh_ctx () in
  let open Stage in
  let open Stage.Infix in
  let module J = Javalike in
  let iface =
    J.interface ~name:"Evaluable" [ ("eval", [ Types.double ], Types.double) ]
  in
  let cls = J.new_class ctx "Poly" in
  J.implements cls iface;
  J.field cls "a" Types.double;
  J.field cls "b" Types.double;
  (* the virtual method and an identical standalone function *)
  let xm = sym ~name:"x" () in
  ignore
    (J.method_ cls "eval"
       ~params:[ (xm, Types.double) ]
       ~ret:Types.double
       (fun self ->
         [
           sreturn
             (Some ((select (var self) "a" *! var xm) +! select (var self) "b"));
         ]));
  let concrete =
    let self = sym ~name:"self" () and x = sym ~name:"x" () in
    func ctx ~name:"Poly.eval_direct"
      ~params:[ (self, J.cptr cls); (x, Types.double) ]
      ~ret:Types.double
      [
        sreturn
          (Some ((select (var self) "a" *! var x) +! select (var self) "b"));
      ]
  in
  let iters = 200_000 in
  let make_driver name callexpr =
    let obj = sym ~name:"obj" () in
    let i = sym ~name:"i" () and acc = sym ~name:"acc" () in
    func ctx ~name
      ~params:[ (obj, J.cptr cls) ]
      ~ret:Types.double
      [
        defvar acc ~ty:Types.double ~init:(flt 0.0);
        sfor i (int_ 0) (int_ iters)
          [
            assign1 (var acc)
              (var acc +! callexpr obj (cast Types.double (var i)));
          ];
        sreturn (Some (var acc));
      ]
  in
  let virt =
    make_driver "virtual_calls" (fun obj x ->
        method_ (deref (var obj)) "eval" [ x ])
  in
  let direct =
    make_driver "direct_calls" (fun obj x -> callf concrete [ var obj; x ])
  in
  let ifdrv =
    make_driver "interface_calls" (fun obj x ->
        J.icall iface "eval"
          (addr (select (deref (var obj)) "__if_Evaluable"))
          [ x ])
  in
  (* the "analogous C++" program: a hand-written vtable load + indirect
     call, exactly what a C++ compiler emits for a virtual call *)
  let cpp =
    make_driver "cpp_analog_calls" (fun obj x ->
        call
          (select (select (deref (var obj)) "__vtable") "eval")
          [ var obj; x ])
  in
  let obj = J.alloc_object cls in
  List.iter
    (fun (f, v) ->
      match Types.field_of cls.J.sinfo f with
      | Some (_, _, off) ->
          Tvm.Mem.set_f64 ctx.Context.vm.Tvm.Vm.mem (obj + off) v
      | None -> assert false)
    [ ("a", 2.0); ("b", 1.0) ];
  let time f =
    Jit.ensure_compiled f;
    let run () =
      match
        Tvm.Vm.call ctx.Context.vm f.Func.vmid [| Tvm.Vm.VI (Int64.of_int obj) |]
      with
      | Tvm.Vm.VF x -> x
      | _ -> nan
    in
    let _ = run () in
    let r, rep = Tmachine.Machine.measure machine run in
    (rep.Tmachine.Machine.r_cycles, r)
  in
  let cd, rd = time direct in
  let cv, rv = time virt in
  let cc, rc = time cpp in
  let ci, ri = time ifdrv in
  Printf.printf "%d calls each (results %.4g / %.4g / %.4g / %.4g %s):\n"
    iters rd rv rc ri
    (if rd = rv && rv = rc && rc = ri then "[identical]" else "[DIFFER]");
  Printf.printf "  %-36s %12.0f cycles\n" "direct (monomorphic) calls" cd;
  Printf.printf "  %-36s %12.0f cycles (+%.1f%% vs direct)\n"
    "hand-written vtable (C++ analog)" cc
    (100. *. ((cc /. cd) -. 1.));
  Printf.printf "  %-36s %12.0f cycles (%+.1f%% vs C++ analog)\n"
    "class-system virtual calls" cv
    (100. *. ((cv /. cc) -. 1.));
  Printf.printf "  %-36s %12.0f cycles (+%.1f%% vs direct)\n"
    "interface calls" ci
    (100. *. ((ci /. cd) -. 1.));
  Printf.printf
    "paper: class-system invocation within 1%% of analogous C++ code\n"

(* ------------------------------------------------------------------ *)
(* Bechamel wall-time microbenchmarks (harness cost, one per family) *)

let bechamel () =
  section "Bechamel wall-time microbenchmarks of the harness itself";
  let open Bechamel in
  let ctx, _machine = fresh_ctx () in
  let elem = Types.double in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem 48 in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let p = { Tuner.Gemm.nb = 24; rm = 2; rn = 2; v = 4 } in
  let kern = Tuner.Gemm.genkernel ctx ~elem p in
  let gemm_f = Tuner.Gemm.blocked_driver ctx ~elem ~kernel:kern ~nb:24 in
  Jit.ensure_compiled gemm_f;
  let area_c = W.compile_area ctx (W.vec_mat 8) ~w:128 ~h:128 in
  let area_in = Orion.Codegen.alloc_io area_c in
  let area_out = Orion.Codegen.alloc_io area_c in
  let mesh =
    Datalayout.Mesh.build ctx ~layout:Datalayout.Datatable.SoA ~nverts:5000
      ~nfaces:10000
  in
  let tests =
    [
      Test.make ~name:"dgemm-48-E1"
        (Staged.stage (fun () -> ignore (Tuner.Gemm.run_gemm ctx gemm_f m)));
      Test.make ~name:"orion-area-128-E5"
        (Staged.stage (fun () ->
             Orion.Codegen.run area_c ~inputs:[ area_in ] ~output:area_out));
      Test.make ~name:"mesh-translate-5k-E7"
        (Staged.stage (fun () ->
             ignore (Datalayout.Mesh.run_translate ctx mesh)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (e :: _) -> Printf.printf "  %-28s %12.0f ns/run\n" name e
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out *)

let ablation () =
  section "Ablations: vector width (Orion) and prefetch (Figure 5 kernel)";
  let ctx, machine = fresh_ctx () in
  (* vector-width sweep for the area filter *)
  let w = 512 and h = 512 in
  Printf.printf "area filter, materialized, by vector width:\n";
  let base = ref 0.0 in
  List.iter
    (fun vec ->
      let c = W.compile_area ctx { W.vec; lb = false } ~w ~h in
      let inb = Orion.Codegen.alloc_io c in
      Orion.Buffer.fill inb (fun x y ->
          sin (float_of_int x /. 4.0) +. cos (float_of_int y /. 9.0));
      let out = Orion.Codegen.alloc_io c in
      Orion.Codegen.run c ~inputs:[ inb ] ~output:out;
      let (), rep =
        Tmachine.Machine.measure machine (fun () ->
            Orion.Codegen.run c ~inputs:[ inb ] ~output:out)
      in
      if vec = 1 then base := rep.Tmachine.Machine.r_cycles;
      Printf.printf "  V=%d %14.0f cycles  %5.2fx\n" vec
        rep.Tmachine.Machine.r_cycles
        (!base /. rep.Tmachine.Machine.r_cycles))
    [ 1; 2; 4; 8 ];
  (* prefetch ablation on the Figure 5 kernel *)
  let elem = Types.double in
  let n = 192 in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  Printf.printf "figure-5 DGEMM kernel (NB=48 RM=4 RN=2 V=4), prefetch:\n";
  List.iter
    (fun prefetch_b ->
      let kernel =
        Tuner.Gemm.genkernel ctx ~elem ~prefetch_b
          { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 }
      in
      let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:48 in
      let gflops, _ = Tuner.Gemm.run_gemm ctx driver m in
      Printf.printf "  prefetch %-3s %8.2f GFLOPS\n"
        (if prefetch_b then "on" else "off")
        gflops)
    [ true; false ];
  Tuner.Gemm.free_matrices ctx m

(* ------------------------------------------------------------------ *)
(* Topt: optimizer impact on the blocked GEMM kernel, opt=0 vs opt=2 *)

let topt () =
  section "Topt: optimizer impact on blocked DGEMM (opt=0 vs opt=2)";
  let elem = Types.double in
  let n = 192 in
  let params = { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 } in
  let run level =
    let ctx, _ = fresh_ctx ~opt_level:level () in
    let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
    Tuner.Gemm.fill_matrices ctx ~elem m;
    let reference = Tuner.Gemm.reference ctx ~elem m in
    let kernel = Tuner.Gemm.genkernel ctx ~elem params in
    let driver =
      Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:params.Tuner.Gemm.nb
    in
    Jit.ensure_compiled driver;
    let s0 = Tvm.Vm.steps ctx.Context.vm in
    let gflops, _ = Tuner.Gemm.run_gemm ctx driver m in
    let fuel = Tvm.Vm.steps ctx.Context.vm - s0 in
    let err = Tuner.Gemm.max_error ctx ~elem m reference in
    Tuner.Gemm.free_matrices ctx m;
    record ~experiment:"topt" ~series:(Printf.sprintf "opt%d" level) ~n
      ~gflops ~fuel ();
    (gflops, fuel, err, ctx.Context.opt_stats)
  in
  Format.printf "kernel %a, n=%d@." Tuner.Gemm.pp_params params n;
  let g0, f0, e0, _ = run 0 in
  let g2, f2, e2, stats = run 2 in
  Printf.printf "  %-8s %10s %16s %12s\n" "" "GFLOPS" "retired instrs" "max error";
  Printf.printf "  %-8s %10.2f %16d %12.2e\n" "opt=0" g0 f0 e0;
  Printf.printf "  %-8s %10.2f %16d %12.2e\n" "opt=2" g2 f2 e2;
  Printf.printf
    "  retired-instruction reduction: %.1f%%  (speedup %.2fx)  %s\n"
    (100.0 *. float_of_int (f0 - f2) /. float_of_int f0)
    (g2 /. g0)
    (if e0 < 1e-9 && e2 < 1e-9 then "[ok]" else "[WRONG]");
  Format.printf "%a@." Topt.Stats.pp stats

(* ------------------------------------------------------------------ *)
(* Supervise: what does transactional execution (page-granular write
   journaling + allocator/shadow snapshots) cost?  Modeled cycles cannot
   see it — journaling is host-side work, like TerraSan — so this
   measures host CPU time, plus retired instructions to show the
   instruction stream is untouched. *)

let mandelbrot_src =
  {|
    local W, H = 64, 24
    local MAXIT = 48
    terra escape_time(cr : double, ci : double) : int
      var zr, zi = 0.0, 0.0
      var it = 0
      while it < MAXIT and zr * zr + zi * zi < 4.0 do
        zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
        it = it + 1
      end
      return it
    end
    local acc = 0
    for y = 0, H - 1 do
      for x = 0, W - 1 do
        acc = acc + escape_time(-2.2 + 3.0 * x / W, -1.2 + 2.4 * y / H)
      end
    end
    print(acc)
  |}

let supervise_bench () =
  section "Supervise: transactional snapshot overhead (DGEMM + mandelbrot)";
  (* DGEMM: one committed transaction around the whole multiplication *)
  let elem = Types.double in
  let n = 192 in
  let ctx, _ = fresh_ctx () in
  let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let kernel =
    Tuner.Gemm.genkernel ctx ~elem { Tuner.Gemm.nb = 48; rm = 4; rn = 2; v = 4 }
  in
  let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:48 in
  Jit.ensure_compiled driver;
  ignore (Tuner.Gemm.run_gemm ctx driver m) (* warm *);
  let reps = 3 in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int reps *. 1000.0
  in
  let fuel_of f =
    let s0 = Tvm.Vm.steps ctx.Context.vm in
    f ();
    Tvm.Vm.steps ctx.Context.vm - s0
  in
  let plain () = ignore (Tuner.Gemm.run_gemm ctx driver m) in
  let txn () =
    match Context.transact ctx (fun () -> Tuner.Gemm.run_gemm ctx driver m) with
    | Ok _ -> ()
    | Error d -> failwith (Diag.to_string d)
  in
  let fuel_plain = fuel_of plain and fuel_txn = fuel_of txn in
  let ms_plain = time plain in
  let ms_txn = time txn in
  Printf.printf "DGEMM n=%d (NB=48 RM=4 RN=2 V=4), %d reps:\n" n reps;
  Printf.printf "  %-26s %10.1f ms/run %14d retired\n" "plain call" ms_plain
    fuel_plain;
  Printf.printf "  %-26s %10.1f ms/run %14d retired\n"
    "transactional (commit)" ms_txn fuel_txn;
  Printf.printf "  snapshot overhead: %+.1f%% host time, %s instruction stream\n"
    (100.0 *. ((ms_txn /. ms_plain) -. 1.0))
    (if fuel_plain = fuel_txn then "identical" else "DIFFERENT");
  record ~experiment:"supervise" ~series:"dgemm-plain" ~n ~fuel:fuel_plain ();
  record ~experiment:"supervise" ~series:"dgemm-txn" ~n ~fuel:fuel_txn ();
  Tuner.Gemm.free_matrices ctx m;
  (* mandelbrot: whole-script transactions through the engine, including
     a rolled-back run (fault injected mid-kernel) *)
  let e = Engine.create ~mem_bytes:(64 * 1024 * 1024) () in
  let script_plain () =
    Engine.reset_scope e;
    match Engine.run_capture_protected e mandelbrot_src with
    | _, Ok _ -> ()
    | _, Error d -> failwith (Diag.to_string d)
  in
  let script_txn () =
    Engine.reset_scope e;
    match Engine.run_capture_transactional e mandelbrot_src with
    | _, Ok _ -> ()
    | _, Error d -> failwith (Diag.to_string d)
  in
  let script_rollback () =
    Engine.reset_scope e;
    Engine.inject e
      (Tvm.Fault.Trap_at_step (Tvm.Vm.steps e.Engine.ctx.Context.vm + 50_000));
    match Engine.run_capture_transactional e mandelbrot_src with
    | _, Ok _ -> failwith "expected the injected trap"
    | _, Error _ -> ()
  in
  script_plain () (* warm *);
  let ms_sp = time script_plain in
  let ms_st = time script_txn in
  let ms_sr = time script_rollback in
  Printf.printf "mandelbrot 64x24 script (compile + run each rep), %d reps:\n"
    reps;
  Printf.printf "  %-26s %10.1f ms/run\n" "plain run" ms_sp;
  Printf.printf "  %-26s %10.1f ms/run (%+.1f%%)\n" "transactional (commit)"
    ms_st
    (100.0 *. ((ms_st /. ms_sp) -. 1.0));
  Printf.printf "  %-26s %10.1f ms/run (fault at +50k steps, session restored)\n"
    "transactional (rollback)" ms_sr;
  record ~experiment:"supervise" ~series:"mandelbrot-plain" ();
  record ~experiment:"supervise" ~series:"mandelbrot-txn" ();
  record ~experiment:"supervise" ~series:"mandelbrot-rollback" ()

(* ------------------------------------------------------------------ *)
(* Durable recovery: wall time to restore the newest checkpoint and
   replay the committed WAL suffix of a terra_serve session.  Two
   shapes: a checkpoint-heavy journal (short replay suffix) and a
   replay-heavy one (the whole session replays from the initial
   barrier). *)

let rec bench_rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter
        (fun f -> bench_rm_rf (Filename.concat p f))
        (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let recover_bench () =
  section
    "Durable recovery (terra_serve): checkpoint restore + WAL replay";
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.pool_size = 2;
      checked = true;
      mem_bytes = Some (16 * 1024 * 1024);
      log = ignore;
    }
  in
  let good = "terra f() return 40 + 2 end print(f())" in
  let div = "terra d(n : int32) return 10 / n end print(d(0))" in
  let req i =
    Tprof.Json.(
      to_string
        (Obj
           [
             ("op", Str "run");
             ("src", Str (if i mod 4 = 3 then div else good));
             ("retries", Int 0);
             ("tenant", Str (Printf.sprintf "t%02d" (i mod 16)));
           ]))
  in
  let requests = 100 in
  Printf.printf "%d requests, 2 checked engines per session:\n%!" requests;
  List.iter
    (fun (series, interval) ->
      let dir = Filename.temp_file "terra-bench-recover" "" in
      Sys.remove dir;
      Fun.protect
        ~finally:(fun () -> bench_rm_rf dir)
        (fun () ->
          let server = Serve.Server.create ~config () in
          (match Serve.Server.enable_durability server ~dir ~interval ()
           with
          | Ok () -> ()
          | Error d -> failwith d.Diag.message);
          for i = 1 to requests do
            ignore (Serve.Server.handle server (req i))
          done;
          (match server.Serve.Server.journal with
          | Some j -> Serve.Durable.close j
          | None -> ());
          let t0 = Monotonic_clock.now () in
          match Serve.Server.recover ~config ~dir () with
          | Error d -> failwith d.Diag.message
          | Ok (recovered, report) ->
              let ns = Int64.sub (Monotonic_clock.now ()) t0 in
              (match recovered.Serve.Server.journal with
              | Some j -> Serve.Durable.close j
              | None -> ());
              let jint k =
                match Tprof.Json.member k report with
                | Some (Tprof.Json.Int n) -> n
                | _ -> 0
              in
              Printf.printf
                "  %-14s %8.1f ms  (barrier %d, replayed %d of %d)\n%!"
                series
                (Int64.to_float ns /. 1e6)
                (jint "barrier") (jint "replayed") requests;
              record ~experiment:"recover" ~series ~n:requests ();
              record_wall ~experiment:("recover/" ^ series) ns))
    [ ("ckpt-heavy", 32); ("replay-heavy", 1000) ]

(* ------------------------------------------------------------------ *)
(* Compilation cache: host wall time spent in jit.compile+jit.optimize
   for a cold cache (everything compiles and stores), a warm cache
   (everything loads), and no cache at all (the baseline the cold run
   must stay close to). *)

let ccache_bench () =
  section "Compilation cache (saveobj-style AOT): cold vs warm compiles";
  let nfuncs = 16 in
  let src =
    String.concat "\n"
      (List.init nfuncs (fun i ->
           Printf.sprintf
             "terra k%d(n : int32) : double\n\
             \  var acc : double = 0.0\n\
             \  for i = 0, n do\n\
             \    for j = 0, 4 do\n\
             \      acc = acc + [double](i * j + %d) * 0.5\n\
             \    end\n\
             \  end\n\
             \  return acc\n\
              end\n\
              print(k%d(16))"
             i i i))
  in
  let dir = Filename.temp_file "terra-bench-ccache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> bench_rm_rf dir)
    (fun () ->
      let run series ~cache =
        let cc =
          if cache then Some (Terra.Ccache.create ~dir ()) else None
        in
        let e =
          Terrastd.create
            ~mem_bytes:(64 * 1024 * 1024)
            ~profile:true ?ccache:cc ()
        in
        let t0 = Monotonic_clock.now () in
        let _, r = Terra.Engine.run_capture_protected e ~file:"ccache.t" src in
        let ns = Int64.sub (Monotonic_clock.now ()) t0 in
        (match r with
        | Ok _ -> ()
        | Error d -> failwith d.Terra.Diag.message);
        let compile_ms =
          List.fold_left
            (fun acc p ->
              match p.Tprof.Report.p_name with
              | "jit.compile" | "jit.optimize" -> acc +. p.Tprof.Report.p_ms
              | _ -> acc)
            0.0
            (Terra.Engine.profile e).Tprof.Report.phases
        in
        let hits, misses, stores =
          match cc with
          | None -> (0, 0, 0)
          | Some c ->
              let k = Terra.Ccache.counts c in
              ( k.Terra.Ccache.c_hits,
                k.Terra.Ccache.c_misses,
                k.Terra.Ccache.c_stores )
        in
        Printf.printf
          "  %-8s %8.3f compile-ms  %8.1f total-ms  (hits %d, misses %d, \
           stores %d)\n\
           %!"
          series compile_ms
          (Int64.to_float ns /. 1e6)
          hits misses stores;
        record ~experiment:"ccache" ~series ~n:nfuncs ();
        record_wall ~experiment:("ccache/" ^ series) ns;
        (e, compile_ms)
      in
      Printf.printf "%d terra functions per engine:\n%!" nfuncs;
      let _, nocache_ms = run "nocache" ~cache:false in
      let _, cold_ms = run "cold" ~cache:true in
      let warm_engine, warm_ms = run "warm" ~cache:true in
      (* the warm engine's profile carries the jit.ccache.* rows *)
      register_profile warm_engine.Terra.Engine.ctx;
      Printf.printf
        "  warm/cold compile ratio %.3f (cold/nocache %.2f)\n%!"
        (if cold_ms > 0.0 then warm_ms /. cold_ms else 0.0)
        (if nocache_ms > 0.0 then cold_ms /. nocache_ms else 0.0))

let experiments =
  [
    ("dgemm", dgemm);
    ("sgemm", sgemm);
    ("kernelsweep", kernelsweep);
    ("area", area);
    ("fluid", fluid);
    ("pipeline", pipeline);
    ("layout", layout);
    ("classes", classes);
    ("ablation", ablation);
    ("topt", topt);
    ("supervise", supervise_bench);
    ("recover", recover_bench);
    ("ccache", ccache_bench);
    ("bechamel", bechamel);
  ]

let () =
  (* split "--json FILE" out of the experiment-name arguments *)
  let json_path = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | "--json" :: [] ->
        Printf.eprintf "--json requires a file argument\n";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | rest -> rest
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          current_experiment := name;
          let t0 = Monotonic_clock.now () in
          Fun.protect
            ~finally:(fun () ->
              record_wall ~experiment:name
                (Int64.sub (Monotonic_clock.now ()) t0);
              current_experiment := "")
            f
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst experiments)))
    requested;
  match !json_path with Some path -> write_json path | None -> ()
