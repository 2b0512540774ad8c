(* Seeded input generators.  Every program, request line and constant the
   workloads feed to the system comes from here, together with the output
   the system must produce for it; the system under test sees only the
   generated text. *)

let rng seed salt = Random.State.make [| seed; salt; 0x7e77a |]
let pick st arr = arr.(Random.State.int st (Array.length arr))

(** Shuffle [arr] in place (Fisher–Yates). *)
let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- x
  done

(* ------------------------------------------------------------------ *)
(* Serve traffic *)

type expect =
  | Ok_output of string  (** status "ok", exit 0, this exact output *)
  | Fails of string
      (** status "error" with this code, exit 2, rollback "verified" *)

type request = {
  line : string;  (** one terra_serve request line (JSON) *)
  expect : expect;
  kind : string;  (** template name, for the report *)
}

let tenants = Array.init 8 (Printf.sprintf "tenant%d")

let json_line ?(extra = "") ~tenant src =
  Printf.sprintf {|{"src":%s,"tenant":"%s"%s}|}
    (Tprof.Json.to_string (Tprof.Json.Str src))
    tenant extra

let heap_src ~k ~n =
  Printf.sprintf
    "local std = terralib.includec(\"stdlib.h\") terra h(n : int32) : int32 \
     var p = [&int32](std.malloc(n * 4)) for i = 0, n do p[i] = i * %d end \
     var s = 0 for i = 0, n do s = s + p[i] end std.free([&uint8](p)) return \
     s end print(h(%d))"
    k n

(* Small staged programs, each with seeded constants and an output the
   benchmark computes independently.  All arithmetic stays far inside
   int32 so the modeled and the OCaml results agree exactly. *)
let ok_program st =
  let k1 = 1 + Random.State.int st 999 and k2 = 1 + Random.State.int st 97 in
  match Random.State.int st 4 with
  | 0 ->
      let a = Random.State.int st 3000 and b = Random.State.int st 3000 in
      ( "arith",
        Printf.sprintf
          "terra f(a : int32, b : int32) : int32 return a * b + %d end \
           print(f(%d, %d))"
          k1 a b,
        (a * b) + k1 )
  | 1 ->
      let n = 50 + Random.State.int st 200 in
      ( "loop",
        Printf.sprintf
          "terra s(n : int32) : int32 var acc = %d for i = 0, n do acc = acc \
           + i * %d end return acc end print(s(%d))"
          k1 k2 n,
        k1 + (k2 * n * (n - 1) / 2) )
  | 2 ->
      let j = 4 + Random.State.int st 12 and x = Random.State.int st 1000 in
      let sum = ref x in
      for i = 1 to j do
        sum := !sum + (i * k1)
      done;
      ( "quotes",
        Printf.sprintf
          "local acc = symbol(int32, \"acc\") local stmts = \
           terralib.newlist() stmts:insert(quote var [acc] = 0 end) for j = \
           1, %d do stmts:insert(quote [acc] = [acc] + [j * %d] end) end \
           terra g(x : int32) : int32 [stmts] return [acc] + x end \
           print(g(%d))"
          j k1 x,
        !sum )
  | _ ->
      let n = 16 + Random.State.int st 240 in
      ("heap", heap_src ~k:k1 ~n, k1 * n * (n - 1) / 2)

(* The request stream: blocks of eight in seeded order.  Five are plain
   ok programs.  One is a heap program whose first allocation is made to
   fail ([fail_alloc]); the supervisor rolls that attempt back and the
   retry succeeds.  Two fail on purpose and are not retried: an integer
   divide-by-zero trap, and an allocation larger than the arena
   ([trap.oom]), so a quarter of the traffic takes the rollback-
   verification path.  With a fixed quarter failing, a run of 44 or more
   requests has its tail (the 11th slowest) inside the failing
   population rather than on the edge between the two.  Failures go
   only to a tenant whose previous request succeeded, so no circuit
   breaker (three consecutive failures) opens. *)
let request_stream seed : unit -> request =
  let st = rng seed 1 in
  let failed_last = Hashtbl.create 8 in
  let queue = Queue.create () in
  let tenant_for ~fails =
    let rec go tries =
      let t = pick st tenants in
      if fails && Hashtbl.mem failed_last t && tries < 64 then go (tries + 1)
      else t
    in
    let t = go 0 in
    if fails then Hashtbl.replace failed_last t () else Hashtbl.remove failed_last t;
    t
  in
  let make slot =
    match slot with
    | `Ok ->
        let kind, src, v = ok_program st in
        let tenant = tenant_for ~fails:false in
        { line = json_line ~tenant src; expect = Ok_output (Printf.sprintf "%d\n" v); kind }
    | `Retry ->
        let k = 1 + Random.State.int st 999 and n = 16 + Random.State.int st 240 in
        let tenant = tenant_for ~fails:false in
        {
          line = json_line ~tenant ~extra:{|,"fail_alloc":1|} (heap_src ~k ~n);
          expect = Ok_output (Printf.sprintf "%d\n" (k * n * (n - 1) / 2));
          kind = "retry";
        }
    | `Divzero ->
        let k = 1 + Random.State.int st 999 in
        let tenant = tenant_for ~fails:true in
        {
          line =
            json_line ~tenant ~extra:{|,"retries":0|}
              (Printf.sprintf
                 "terra d(n : int32) : int32 return %d / n end print(d(0))" k);
          expect = Fails "trap.divzero";
          kind = "divzero";
        }
    | `Oom ->
        let mib = 256 + Random.State.int st 768 in
        let tenant = tenant_for ~fails:true in
        {
          line =
            json_line ~tenant ~extra:{|,"retries":0|}
              (Printf.sprintf
                 "local std = terralib.includec(\"stdlib.h\") terra big(n : \
                  int64) : int32 var p = [&int32](std.malloc(n)) p[0] = 1 \
                  var v = p[0] std.free([&uint8](p)) return v end \
                  print(big(%d))"
                 (mib lsl 20));
          expect = Fails "trap.oom";
          kind = "oom";
        }
  in
  let refill () =
    let slots = [| `Ok; `Ok; `Ok; `Ok; `Ok; `Retry; `Divzero; `Oom |] in
    shuffle st slots;
    Array.iter (fun s -> Queue.push (make s) queue) slots
  in
  fun () ->
    if Queue.is_empty queue then refill ();
    Queue.pop queue

(* ------------------------------------------------------------------ *)
(* The staging metaprogram *)

(* [nf] distinct Terra functions built from quote lists, escapes and
   symbols.  Function i folds [steps] statements into an accumulator
   symbol; its initial value is drawn without repetition across
   functions, so every function has its own cache key (with
   repeating constants the generated functions collapse onto a few keys
   and the warm pass measures far fewer lookups than functions).  Every
   function is then called once and the results summed. *)
let staging_program ~seed ~nf ~steps : string * string =
  let st = rng seed 2 in
  let used = Hashtbl.create 1024 in
  let rec fresh bound =
    let v = Random.State.int st bound in
    if Hashtbl.mem used v then fresh bound
    else (
      Hashtbl.replace used v ();
      v)
  in
  let modulus = 1_000_003 in
  let b = Buffer.create (nf * 96) in
  let total = ref 0 in
  Buffer.add_string b
    "local function body(x, acc, init, mul, adds, shape)\n\
    \  local stmts = terralib.newlist()\n\
    \  stmts:insert(quote var [acc] = init end)\n\
    \  for j = 1, #adds do\n\
    \    local a = adds[j]\n\
    \    if shape == 0 then\n\
    \      stmts:insert(quote [acc] = ([acc] * mul + x * a) % 1000003 end)\n\
    \    else\n\
    \      stmts:insert(quote [acc] = ([acc] * mul + a) % 1000003 end)\n\
    \    end\n\
    \  end\n\
    \  return stmts\n\
     end\n\
     local specs = {\n";
  for i = 1 to nf do
    let init = fresh 500_000 in
    let mul = 2 + Random.State.int st 500 in
    let adds = List.init steps (fun _ -> Random.State.int st 1_000_000) in
    let shape = Random.State.int st 2 in
    let x = i in
    let acc = ref init in
    List.iter
      (fun a ->
        acc :=
          if shape = 0 then ((!acc * mul) + (x * a)) mod modulus
          else ((!acc * mul) + a) mod modulus)
      adds;
    total := !total + !acc;
    Printf.bprintf b "  {%d, %d, %d, {%s}},\n" init mul shape
      (String.concat ", " (List.map string_of_int adds))
  done;
  Buffer.add_string b
    "}\n\
     local total = 0\n\
     for i, s in ipairs(specs) do\n\
    \  local acc = symbol(int64, \"acc\")\n\
    \  local f = terra(x : int64) : int64\n\
    \    [ body(x, acc, s[1], s[2], s[4], s[3]) ]\n\
    \    return [acc]\n\
    \  end\n\
    \  total = total + f(i)\n\
     end\n\
     print(total)\n";
  (Buffer.contents b, Printf.sprintf "%d\n" !total)

(* ------------------------------------------------------------------ *)
(* Kernel inputs *)

(* DGEMM operands: seeded values, well conditioned.  The modeled cost of
   a GEMM does not depend on operand values, so the pinned retired counts
   and GFLOPS hold for every seed while the product itself is checked
   against the reference. *)
let matrix_values ~seed ~n =
  let st = rng seed 3 in
  ( Array.init (n * n) (fun _ -> 0.5 +. Random.State.float st 1.0),
    Array.init (n * n) (fun _ -> 0.5 +. Random.State.float st 1.0) )

(* The Lua-driven mandelbrot: a fixed 160x60 grid at MAXIT 64, so its
   checksum, retired count and call count are pinned.  The seed only
   orders the rows, which changes neither. *)
let mandel_w = 160
let mandel_h = 60
let mandel_maxit = 64

let mandel_def =
  Printf.sprintf
    "escape_time = terra(cr : double, ci : double) : int32\n\
    \  var zr, zi = 0.0, 0.0\n\
    \  var it = 0\n\
    \  while it < %d and zr * zr + zi * zi < 4.0 do\n\
    \    zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci\n\
    \    it = it + 1\n\
    \  end\n\
    \  return it\n\
     end\n"
    mandel_maxit

let mandel_rows seed =
  let st = rng seed 4 in
  let rows = Array.init mandel_h Fun.id in
  shuffle st rows;
  rows

let mandel_point x y =
  ( -2.2 +. (3.0 *. float_of_int x /. float_of_int mandel_w),
    -1.2 +. (2.4 *. float_of_int y /. float_of_int mandel_h) )

let mandel_program rows =
  Printf.sprintf
    "local rows = {%s}\n\
     local sum = 0\n\
     for _, y in ipairs(rows) do\n\
    \  for x = 0, %d do\n\
    \    sum = sum + escape_time(-2.2 + 3.0 * x / %d, -1.2 + 2.4 * y / %d)\n\
    \  end\n\
     end\n\
     print(sum)\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int rows)))
    (mandel_w - 1) mandel_w mandel_h
