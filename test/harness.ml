(* Shared test harness: the "build an engine, run a program, look at
   output/diagnostics" helpers that every engine-level suite needs.
   Dune links non-entry modules in test/ into each test executable, so
   suites just call [Harness.run_ok] etc. *)

open Terra

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** A {!Blobio} frame with a valid digest over bytes that are not a
    marshaled value: it passes every frame check, so only the decoder
    can reject it. *)
let unmarshalable_frame ~magic =
  let path = Filename.temp_file "terra-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Blobio.write_framed oc ~magic "junk";
      close_out oc;
      read_file path)

(* cwd at test time is _build/default/test; (deps ...) in test/dune
   stages sources into the build tree at their original relative paths *)

(** A paper example program under examples/programs/. *)
let example name = Filename.concat "../examples/programs" name

(** A golden buggy program under test/programs/. *)
let golden name = Filename.concat "programs" name

(** A checked-in expected-output file under test/expected/. *)
let expected name = Filename.concat "expected" name

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(** A fully-installed engine (terralib + the DSL layers) sized for
    tests. *)
let engine ?(mem_bytes = 32 * 1024 * 1024) ?(checked = false) ?faults
    ?opt_level ?fuel ?profile ?trace ?ccache () =
  Terrastd.create ~mem_bytes ~checked ?faults ?opt_level ?fuel ?profile
    ?trace ?ccache ()

(** Build an engine, pass it to [f].  Keeps engine knobs out of the test
    body when the test only needs one. *)
let with_engine ?mem_bytes ?checked ?faults ?opt_level ?fuel ?profile ?trace
    ?ccache f =
  f (engine ?mem_bytes ?checked ?faults ?opt_level ?fuel ?profile ?trace
       ?ccache ())

(** Run [src], returning [(output, result)]. *)
let run_capture ?file e src = Engine.run_capture_protected e ?file src

(** Run [src] that must succeed; returns its captured output. *)
let run_ok ?file e src =
  match Engine.run_capture_protected e ?file src with
  | out, Ok _ -> out
  | _, Error d -> Alcotest.failf "setup run failed: %s" (Diag.to_string d)

(** Run [src] that must fail; returns the structured diagnostic. *)
let run_diag ?file e src =
  match Engine.run_capture_protected e ?file src with
  | _, Error d -> d
  | out, Ok _ ->
      Alcotest.failf "expected a diagnostic, got success with output %S" out

(** Run [src] and check its captured output is exactly [expect]. *)
let run_expect ?file ?(name = "output") e src ~expect =
  Alcotest.(check string) name expect (run_ok ?file e src)

(** Run a golden buggy program from test/programs/ through a fresh
    engine; returns the engine (for leak checks) and the result. *)
let run_golden ?faults ?ccache ~checked name =
  let src = read_file (golden name) in
  let e = engine ~checked ?faults ?ccache () in
  let _, r = Engine.run_capture_protected e ~file:name src in
  (e, r)

(** Run a paper example from examples/programs/ and diff its output
    against a checked-in expected file from test/expected/. *)
let run_expect_file ?(mem_bytes = 64 * 1024 * 1024) src_file expected_file ()
    =
  let src = read_file (example src_file) in
  let e = engine ~mem_bytes () in
  match Engine.run_capture_protected e ~file:src_file src with
  | out, Ok _ ->
      Alcotest.(check string) src_file (read_file (expected expected_file)) out
  | _, Error d -> Alcotest.failf "%s: %s" src_file (Diag.to_string d)
