(* Tests for the Terra language itself: the type system, eager hygienic
   specialization, lazy typechecking, compilation, the combined surface
   language, the FFI, and separate evaluation. Most integration tests are
   complete combined Lua-Terra programs run through the engine. *)

open Terra

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let quick name f = Alcotest.test_case name `Quick f

let run src =
  let e = Engine.create ~mem_bytes:(32 * 1024 * 1024) () in
  let out, _ = Engine.run_capture e src in
  String.trim out

let expect name src expected () = checks name expected (run src)

(* Run through the protected boundary and assert a structured diagnostic
   with the expected phase/code (and optionally span line). *)
let expect_diag name ?phase ?code ?line src () =
  let e = Engine.create ~mem_bytes:(32 * 1024 * 1024) () in
  match Engine.run_capture_protected e src with
  | _, Ok _ -> Alcotest.failf "%s: expected a diagnostic, got Ok" name
  | _, Error d ->
      (match phase with
      | Some p ->
          checks (name ^ " phase") (Diag.phase_name p)
            (Diag.phase_name d.Diag.phase)
      | None -> ());
      (match code with
      | Some c -> checks (name ^ " code") c d.Diag.code
      | None -> ());
      (match line with
      | Some l -> (
          match d.Diag.span with
          | Some (_, got) -> checki (name ^ " line") l got
          | None -> Alcotest.failf "%s: diagnostic has no span" name)
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Type system *)

let types_tests =
  [
    quick "primitive sizes" (fun () ->
        checki "int" 4 (Types.sizeof Types.int_);
        checki "int64" 8 (Types.sizeof Types.int64);
        checki "float" 4 (Types.sizeof Types.float_);
        checki "double" 8 (Types.sizeof Types.double);
        checki "bool" 1 (Types.sizeof Types.bool_);
        checki "ptr" 8 (Types.sizeof (Types.ptr Types.int8));
        checki "array" 24 (Types.sizeof (Types.array Types.double 3));
        checki "vector" 32 (Types.sizeof (Types.vector Types.double 4)));
    quick "struct layout offsets" (fun () ->
        let s = Types.new_struct "S" in
        Types.add_entry s "a" Types.int8;
        Types.add_entry s "b" Types.int32;
        Types.add_entry s "c" Types.int8;
        Types.add_entry s "d" Types.double;
        let l = Types.struct_layout s in
        let off n =
          match Types.field_of s n with
          | Some (_, _, o) -> o
          | None -> Alcotest.fail "missing field"
        in
        checki "a" 0 (off "a");
        checki "b padded" 4 (off "b");
        checki "c" 8 (off "c");
        checki "d padded" 16 (off "d");
        checki "size" 24 l.Types.size;
        checki "align" 8 l.Types.align);
    quick "nominal struct equality" (fun () ->
        let a = Types.new_struct "T" and b = Types.new_struct "T" in
        checkb "distinct" false
          (Types.equal (Types.Tstruct a) (Types.Tstruct b));
        checkb "self" true (Types.equal (Types.Tstruct a) (Types.Tstruct a)));
    quick "structural equality elsewhere" (fun () ->
        checkb "ptr" true
          (Types.equal (Types.ptr Types.int_) (Types.ptr Types.int_));
        checkb "fn" true
          (Types.equal
             (Types.Tfunc ([ Types.int_ ], Types.double))
             (Types.Tfunc ([ Types.int_ ], Types.double))));
    quick "entries frozen after layout" (fun () ->
        let s = Types.new_struct "F" in
        Types.add_entry s "x" Types.int_;
        ignore (Types.struct_layout s);
        checkb "raises" true
          (match Types.add_entry s "y" Types.int_ with
          | exception Types.Type_error _ -> true
          | _ -> false));
    quick "recursive struct by pointer ok" (fun () ->
        let s = Types.new_struct "Node" in
        Types.add_entry s "next" (Types.ptr (Types.Tstruct s));
        Types.add_entry s "v" Types.int_;
        checki "size" 16 (Types.sizeof (Types.Tstruct s)));
    quick "infinite-size struct rejected" (fun () ->
        let s = Types.new_struct "Omega" in
        Types.add_entry s "self" (Types.Tstruct s);
        checkb "raises" true
          (match Types.struct_layout s with
          | exception Types.Type_error _ -> true
          | _ -> false));
    quick "__finalizelayout runs once, at first examination" (fun () ->
        let count = ref 0 in
        let s = Types.new_struct "L" in
        Mlua.Value.raw_set_str s.Types.metamethods "__finalizelayout"
          (Mlua.Value.Func
             (Mlua.Value.new_func (fun _ ->
                  incr count;
                  Types.add_entry s "late" Types.int64;
                  [])));
        checki "not yet" 0 !count;
        ignore (Types.struct_layout s);
        ignore (Types.struct_layout s);
        checki "once" 1 !count;
        checkb "late entry present" true (Types.field_of s "late" <> None));
    quick "reflection from lua" (expect "r"
        {|print(int.name, (&int).name, int:ispointer(), (&int):ispointer())
          print((&double).type == double, vector(float, 4).N)
          struct P { x : int; y : double }
          print(P:isstruct(), terralib.sizeof(P), terralib.offsetof(P, "y"))|}
        "int\t&int\tfalse\ttrue\ntrue\t4\ntrue\t16\t8");
    quick "array type via T[n]" (expect "r"
        "print(int[4].name, terralib.sizeof(double[10]))" "int[4]\t80");
    quick "function type via arrow" (expect "r"
        "local t = {int, double} -> bool print(t.name, t.returntype == bool)"
        "{int,double} -> bool\ttrue");
  ]

(* ------------------------------------------------------------------ *)
(* Specialization: eager, hygienic, shared lexical environment *)

let spec_tests =
  [
    quick "eager capture beats mutation" (expect "s"
        {|local x = 10
          terra f() : int return x end
          x = 99
          print(f())|}
        "10");
    quick "separate evaluation of terra code" (expect "s"
        {|local x = 1
          terra f(y : int) : int return x end
          x = 2
          print(f(0), x)|}
        "1\t2");
    quick "quotes specialize at creation" (expect "s"
        {|local k = 5
          local q = `k + 1
          k = 100
          terra f() : int return [q] end
          print(f())|}
        "6");
    quick "hygiene: quote lets do not capture user variables" (expect "s"
        {|local y = 42
          local mkq = function() return `y end
          terra f() : int
            var y = 7  -- a different y, hygienically renamed
            return [mkq()] + y
          end
          print(f())|}
        "49");
    quick "terra vars visible to escapes (shared env)" (expect "s"
        {|local function double_it(v) return `v + v end
          terra f(x : int) : int
            return [ double_it(x) ]
          end
          print(f(21))|}
        "42");
    quick "loop variables cross into lua during staging" (expect "s"
        {|local total = global(int, 0)
          local function body(i) return quote total = total + i end end
          terra f() : int
            for i = 0, 5 do
              [ body(i) ]
            end
            return total
          end
          print(f())|}
        "10");
    quick "symbols violate hygiene deliberately" (expect "s"
        {|local s = symbol(int, "shared")
          local def = quote var [s] = 33 end
          local use = `[s] + 9
          terra f() : int
            [def]
            return [use]
          end
          print(f())|}
        "42");
    quick "statement splices of quote lists" (expect "s"
        {|local acc = global(int, 0)
          local stmts = terralib.newlist()
          for i = 1, 4 do stmts:insert(quote acc = acc + i end) end
          terra f() : int
            [stmts]
            return acc
          end
          print(f())|}
        "10");
    quick "nested table select sugar" (expect "s"
        {|local lib = { math = { kfun = terra(x : int) : int return x * 3 end } }
          terra f() : int return lib.math.kfun(14) end
          print(f())|}
        "42");
    quick "undefined variable in terra is an error"
      (expect_diag "u" ~phase:Diag.Specialize ~code:"spec.error"
         "terra f() : int return neverdefined end");
    quick "escape evaluating to nil is an error"
      (expect_diag "n" ~phase:Diag.Specialize ~code:"spec.error"
         "local q = nil terra f() : int return [q] end print(f())");
    quick "respecialization does not occur" (expect "s"
        {|local calls = 0
          local function counted()
            calls = calls + 1
            return `1
          end
          terra f() : int return [counted()] end
          f() f() f()
          print(calls)|}
        "1");
  ]

(* ------------------------------------------------------------------ *)
(* Typechecking: lazy, monotonic; conversions *)

let typecheck_tests =
  [
    quick "typecheck happens at first call" (expect "t"
        {|terra bad() : int return 1.5 > 2.0 end -- ill-typed: returns bool
          print("defined ok")
          local ok = pcall(function() bad() end)
          print(ok)|}
        "defined ok\nfalse");
    quick "monotonic: link error then success" (expect "t"
        {|terra helper :: {int} -> int
          terra f(x : int) : int return helper(x) + 1 end
          local ok1 = pcall(function() f(1) end)
          terra helper(x : int) : int return x * 2 end
          local ok2, v = pcall(function() return f(20) end)
          print(ok1, ok2, v)|}
        "false\ttrue\t41");
    quick "redefinition is rejected" (expect "t"
        {|terra f() : int return 1 end
          local ok = pcall(function()
            terra f() : int return 2 end
          end)
          print(ok, f())|}
        "false\t1");
    quick "recursive fn needs annotation"
      (expect_diag "rec" ~phase:Diag.Typecheck ~code:"tc.error"
         "terra f(n : int) return f(n) end print(f(0))");
    quick "return type inference" (expect "t"
        {|terra f(x : int) return x * 2.5 end
          print(f(4), f:gettype().returntype == double)|}
        "10\ttrue");
    quick "int promotion int+double" (expect "t"
        {|terra f(a : int, b : double) : double return a + b end
          print(f(1, 0.5))|}
        "1.5");
    quick "int widths promote" (expect "t"
        {|terra f(a : int8, b : int64) : int64 return a + b end
          print(f(100, 1000000))|}
        "1000100");
    quick "narrowing requires explicit cast"
      (expect_diag "narrow" ~phase:Diag.Typecheck ~code:"tc.error"
         "terra f(a : int64) : int return a end print(f(1))");
    quick "explicit casts" (expect "t"
        {|terra f(x : double) : int return [int](x) end
          print(f(3.99), f(-2.99))|}
        "3\t-2");
    quick "bool required in conditions"
      (expect_diag "cond" ~phase:Diag.Typecheck ~code:"tc.error"
         "terra f(x : int) : int if x then return 1 end return 0 end print(f(1))");
    quick "pointer arithmetic types" (expect "t"
        {|local std = terralib.includec("stdlib.h")
          terra f() : int64
            var p = [&int](std.malloc(64))
            var q = p + 5
            var d = q - p
            std.free([&uint8](p))
            return d
          end
          print(f())|}
        "5");
    quick "assignment to rvalue rejected"
      (expect_diag "lv" ~phase:Diag.Typecheck ~code:"tc.error"
         "terra f() : int 3 = 4 return 0 end print(f())");
    quick "wrong arity rejected"
      (expect_diag "arity" ~phase:Diag.Typecheck ~code:"tc.error"
         "terra g(x : int) : int return x end terra f() : int return g(1, 2) end print(f())");
    quick "missing field rejected at first call" (expect "nofield"
        {|struct S { x : int }
          terra f(s : S) : int return s.y end
          print((pcall(function() return f({ x = 1 }) end)))|}
        "false");
    quick "user __cast conversion" (expect "t"
        {|struct Complex { re : float; im : float }
          Complex.metamethods.__cast = function(from, to, exp)
            if from == float and to == Complex then
              return `Complex { exp, 0.f }
            end
            error("invalid conversion")
          end
          terra add(a : Complex, b : Complex) : float
            return a.re + b.re + a.im + b.im
          end
          terra f() : float
            var x : float = 1.5f
            return add(x, Complex { 2.5f, 1.f })  -- x converts implicitly
          end
          print(f())|}
        "5");
  ]

(* ------------------------------------------------------------------ *)
(* Compilation and execution: whole surface programs *)

let exec_tests =
  [
    quick "control flow mix" (expect "x"
        {|terra collatz(n : int) : int
            var steps = 0
            while n ~= 1 do
              if n % 2 == 0 then n = n / 2
              else n = 3 * n + 1 end
              steps = steps + 1
            end
            return steps
          end
          print(collatz(27))|}
        "111");
    quick "repeat and break" (expect "x"
        {|terra f() : int
            var i = 0
            repeat
              i = i + 1
              if i == 7 then break end
            until i > 100
            return i
          end
          print(f())|}
        "7");
    quick "negative for step" (expect "x"
        {|terra f() : int
            var s = 0
            for i = 10, 0, -2 do s = s + i end
            return s
          end
          print(f())|}
        "30");
    quick "multi-assign uses old values" (expect "x"
        {|terra f() : int
            var a, b = 3, 4
            a, b = b, a
            return a * 10 + b
          end
          print(f())|}
        "43");
    quick "arrays on the stack" (expect "x"
        {|terra f() : int
            var a : int[8]
            for i = 0, 8 do a[i] = i * i end
            var s = 0
            for i = 0, 8 do s = s + a[i] end
            return s
          end
          print(f())|}
        "140");
    quick "struct by value argument" (expect "x"
        {|struct V2 { x : double; y : double }
          terra dot(a : V2, b : V2) : double
            return a.x * b.x + a.y * b.y
          end
          terra f() : double
            var a = V2 { 1.0, 2.0 }
            return dot(a, V2 { 3.0, 4.0 })
          end
          print(f())|}
        "11");
    quick "struct by value return" (expect "x"
        {|struct V2 { x : double; y : double }
          terra mk(x : double, y : double) : V2
            return V2 { x, y }
          end
          terra f() : double
            var v = mk(5.0, 7.0)
            return v.x * v.y
          end
          print(f())|}
        "35");
    quick "mutating a by-value param stays local" (expect "x"
        {|struct B { n : int }
          terra bump(b : B) : int b.n = b.n + 1 return b.n end
          terra f() : int
            var b = B { 10 }
            var r = bump(b)
            return r * 100 + b.n
          end
          print(f())|}
        "1110");
    quick "methods with self pointer mutate" (expect "x"
        {|struct Counter { n : int }
          terra Counter:inc() : {} self.n = self.n + 1 end
          terra Counter:get() : int return self.n end
          terra f() : int
            var c = Counter { 0 }
            c:inc() c:inc() c:inc()
            return c:get()
          end
          print(f())|}
        "3");
    quick "function pointers" (expect "x"
        {|terra twice(x : int) : int return x * 2 end
          terra thrice(x : int) : int return x * 3 end
          terra apply(f : {int} -> int, x : int) : int return f(x) end
          terra g() : int return apply(twice, 10) + apply(thrice, 10) end
          print(g())|}
        "50");
    quick "globals persist across calls" (expect "x"
        {|local g = global(int64, 100)
          terra bump() : int64 g = g + 1 return g end
          bump() bump()
          print(bump(), g:get())
          g:set(0)
          print(bump())|}
        "103\t103\n1");
    quick "vectors end to end" (expect "x"
        {|terra f() : float
            var a = [vector(float, 4)](2.f)
            var b = [vector(float, 4)](0.f)
            b = a * a + a
            var buf : float[4]
            @([&vector(float, 4)](&buf[0])) = b
            return buf[0] + buf[1] + buf[2] + buf[3]
          end
          print(f())|}
        "24");
    quick "string literals are C strings" (expect "x"
        {|local std = terralib.includec("stdio.h")
          terra f() : {} std.puts("hello from terra") end
          f()|}
        "hello from terra");
    quick "deep call chains" (expect "x"
        {|terra a(x : int) : int return x + 1 end
          terra b(x : int) : int return a(x) * 2 end
          terra c(x : int) : int return b(x) + a(x) end
          terra d(x : int) : int return c(b(a(x))) end
          print(d(1))|}
        "21");
    quick "uint64 division is unsigned" (expect "x"
        {|terra f() : bool
            var x : uint64 = [uint64](0) - [uint64](2)  -- 2^64 - 2
            var u = x / [uint64](2)                     -- huge when unsigned
            var s = [int64](x) / [int64](2)             -- -1 when signed
            return u > [uint64](1000000) and s < [int64](0)
          end
          print(f())|}
        "true");
    quick "methods via the methods table (paper syntax)" (expect "x"
        {|struct Vec { x : double; y : double }
          Vec.methods.dot = terra(self : &Vec, o : &Vec) : double
            return self.x * o.x + self.y * o.y
          end
          terra f() : double
            var a = Vec { 1.0, 2.0 }
            var b = Vec { 3.0, 4.0 }
            return a:dot(&b)
          end
          print(f())|}
        "11");
    quick "nested quotes through helper functions" (expect "x"
        {|local function scaled(e, k)
            return `e * k
          end
          local function twice(e)
            return `[scaled(e, 2)] + [scaled(e, 2)]
          end
          terra f(x : int) : int
            return [twice(x)]
          end
          print(f(5))|}
        "20");
    quick "terra functions stored in lua tables" (expect "x"
        {|local ops = {}
          ops.add = terra(a : int, b : int) : int return a + b end
          ops.mul = terra(a : int, b : int) : int return a * b end
          terra f(x : int) : int
            return ops.add(x, 1) + ops.mul(x, 10)
          end
          print(f(4))|}
        "45");
    quick "while with complex condition" (expect "x"
        {|terra gcd(a : int, b : int) : int
            while b ~= 0 do
              a, b = b, a % b
            end
            return a
          end
          print(gcd(252, 105), gcd(7, 13))|}
        "21	1");
    quick "early return from nested loops" (expect "x"
        {|terra find(p : &int, n : int, needle : int) : int
            for i = 0, n do
              if p[i] == needle then return i end
            end
            return -1
          end
          terra f() : int
            var a : int[5]
            for i = 0, 5 do a[i] = i * i end
            return find(&a[0], 5, 9) * 10 + find(&a[0], 5, 7)
          end
          print(f())|}
        "29");
    quick "laplace from section 2" (fun () ->
        let out =
          run
            {|local std = terralib.includec("stdlib.h")
              function Image(PixelType)
                struct ImageImpl { data : &PixelType; N : int; }
                terra ImageImpl:init(N : int) : {}
                  self.data = [&PixelType](std.malloc(N * N * [terralib.sizeof(PixelType)]))
                  self.N = N
                end
                terra ImageImpl:get(x : int, y : int) : PixelType
                  return self.data[x * self.N + y]
                end
                terra ImageImpl:set(x : int, y : int, v : PixelType) : {}
                  self.data[x * self.N + y] = v
                end
                return ImageImpl
              end
              local GreyscaleImage = Image(float)
              terra laplace(img : &GreyscaleImage, out : &GreyscaleImage) : {}
                var newN = img.N - 2
                out:init(newN)
                for i = 0, newN do
                  for j = 0, newN do
                    var v = img:get(i+0,j+1) + img:get(i+2,j+1)
                          + img:get(i+1,j+2) + img:get(i+1,j+0)
                          - 4 * img:get(i+1,j+1)
                    out:set(i,j,v)
                  end
                end
              end
              terra go() : float
                var i = GreyscaleImage {}
                var o = GreyscaleImage {}
                i:init(16)
                for x = 0, 16 do for y = 0, 16 do
                  i:set(x, y, [float](x * x + y))
                end end
                laplace(&i, &o)
                var s = 0.f
                for x = 0, 14 do for y = 0, 14 do s = s + o:get(x, y) end end
                return s
              end
              print(go())|}
        in
        (* laplacian of x^2 + y is 2 everywhere: 14 * 14 * 2 = 392 *)
        checks "laplace checksum" "392" out);
    quick "blockedloop equals plain loop" (expect "x"
        {|terra min(a : int64, b : int64) : int64
            if a < b then return a else return b end
          end
          local function blockedloop(N, blocksizes, bodyfn)
            local function generatelevel(n, ii, jj, bb)
              if n > #blocksizes then return bodyfn(ii, jj) end
              local blocksize = blocksizes[n]
              return quote
                for i = ii, min(ii + bb, N), blocksize do
                  for j = jj, min(jj + bb, N), blocksize do
                    [ generatelevel(n + 1, i, j, blocksize) ]
                  end
                end
              end
            end
            return generatelevel(1, 0, 0, N)
          end
          local acc1 = global(int64, 0)
          local acc2 = global(int64, 0)
          terra blocked() : {}
            [ blockedloop(17, {8, 4, 1}, function(i, j)
                return quote acc1 = acc1 + i * 1000 + j end
              end) ]
          end
          terra plain() : {}
            for i = 0, 17 do for j = 0, 17 do
              acc2 = acc2 + i * 1000 + j
            end end
          end
          blocked() plain()
          print(acc1:get() == acc2:get(), acc1:get() ~= 0)|}
        "true\ttrue");
  ]

(* ------------------------------------------------------------------ *)
(* FFI and separate evaluation *)

let ffi_tests =
  [
    quick "lua numbers cross the boundary" (expect "f"
        {|terra f(a : int, b : double, c : bool) : double
            if c then return a + b end
            return a - b
          end
          print(f(10, 2.5, true), f(10, 2.5, false))|}
        "12.5\t7.5");
    quick "lua strings become rawstring" (expect "f"
        {|terra strlen(s : rawstring) : int
            var n = 0
            while s[n] ~= 0 do n = n + 1 end
            return n
          end
          print(strlen("four"), strlen(""))|}
        "4\t0");
    quick "tables convert to structs" (expect "f"
        {|struct P { x : double; y : double }
          terra norm2(p : P) : double return p.x * p.x + p.y * p.y end
          print(norm2({ x = 3, y = 4 }))|}
        "25");
    quick "cdata structs returned by value readable from lua" (expect "f"
        {|struct P { x : double; y : double }
          terra mk() : P return P { 6.0, 7.0 } end
          local p = mk()
          print(p.x * p.y)|}
        "42");
    quick "terralib.cast wraps lua functions" (expect "f"
        {|local calls = {}
          local cb = terralib.cast({int} -> int, function(x)
            calls[#calls + 1] = x
            return x * 2
          end)
          terra f(x : int) : int return cb(x) + cb(x + 1) end
          print(f(5))
          print(#calls, calls[1], calls[2])|}
        "22\n2\t5\t6");
    quick "saveobj roundtrip without lua" (fun () ->
        let e = Engine.create () in
        let path = Filename.temp_file "terra_test" ".tobj" in
        ignore
          (Engine.run e
             (Printf.sprintf
                {|local K = 6
                  terra mulk(x : int64) : int64 return x * K end
                  terra callmulk(x : int64) : int64 return mulk(x) + 1 end
                  terralib.saveobj(%S, { mulk = mulk, callmulk = callmulk })|}
                path));
        let obj = Objfile.load_file path in
        Sys.remove path;
        let vm, exports = Objfile.instantiate obj in
        checkb "exports" true
          (List.mem_assoc "mulk" exports && List.mem_assoc "callmulk" exports);
        (match
           Tvm.Vm.call vm (List.assoc "callmulk" exports) [| Tvm.Vm.VI 7L |]
         with
        | Tvm.Vm.VI v -> Alcotest.(check int64) "runs standalone" 43L v
        | _ -> Alcotest.fail "int expected"));
    quick "separate context per engine" (fun () ->
        let e1 = Engine.create () in
        let e2 = Engine.create () in
        ignore (Engine.run e1 "terra f() : int return 1 end");
        ignore (Engine.run e2 "terra f() : int return 2 end");
        let o1, _ = Engine.run_capture e1 "print(f())" in
        let o2, _ = Engine.run_capture e2 "print(f())" in
        checks "e1" "1" (String.trim o1);
        checks "e2" "2" (String.trim o2));
  ]

(* ------------------------------------------------------------------ *)
(* Object-file hardening: a .tobj from disk is hostile input.  Framing
   damage (bit flips, truncation) and structurally invalid objects that
   pass the framing must both surface as structured [obj.bad-file]
   diagnostics — never an exception, never an out-of-range VM access. *)

let save_tobj () =
  let e = Engine.create () in
  let path = Filename.temp_file "terra_fuzz" ".tobj" in
  ignore
    (Engine.run e
       (Printf.sprintf
          {|local K = 6
            terra mulk(x : int64) : int64 return x * K end
            terra callmulk(x : int64) : int64 return mulk(x) + 1 end
            terralib.saveobj(%S, { mulk = mulk, callmulk = callmulk })|}
          path));
  let ic = open_in_bin path in
  let blob = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  blob

let expect_bad_file what data =
  let path = Filename.temp_file "terra_fuzz" ".tobj" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      match Objfile.load_file path with
      | _ -> Alcotest.failf "%s loaded as a valid object" what
      | exception Diag.Error d ->
          checks (what ^ ": code") "obj.bad-file" d.Diag.code)

let hostile_obj ?(exports = [ ("f", 0) ]) ?(imports = [||]) ?(statics = "")
    ?(relocs = []) funcs =
  let path = Filename.temp_file "terra_fuzz" ".tobj" in
  let oc = open_out_bin path in
  Objfile.write_channel oc
    {
      Objfile.o_funcs = Array.of_list funcs;
      o_imports = imports;
      o_exports = exports;
      o_statics = statics;
      o_statics_len = String.length statics;
      o_relocs = relocs;
    };
  close_out oc;
  let ic = open_in_bin path in
  let blob = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  blob

let ret0 = { Tvm.Ir.fname = "f"; nparams = 0; nregs = 1; frame_bytes = 0;
             code = [| Tvm.Ir.Ret None |] }

let objfile_tests =
  [
    quick "bit flips anywhere in a .tobj are structured failures"
      (fun () ->
        let blob = save_tobj () in
        let len = String.length blob in
        checkb "the object is not trivial" true (len > 200);
        (* deterministic sweep: ~60 positions spread over header, digest,
           and payload; every flip must be caught by the framing *)
        for i = 0 to 59 do
          let off = i * len / 60 in
          let b = Bytes.of_string blob in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
          expect_bad_file
            (Printf.sprintf "flip at byte %d" off)
            (Bytes.to_string b)
        done);
    quick "truncated .tobj prefixes are structured failures" (fun () ->
        let blob = save_tobj () in
        let len = String.length blob in
        List.iter
          (fun keep ->
            expect_bad_file
              (Printf.sprintf "prefix of %d bytes" keep)
              (String.sub blob 0 keep))
          [ 0; 1; 5; 9; 10; 14; 18; 33; 34; len / 2; len - 1 ]);
    quick "structurally hostile objects are rejected after framing"
      (fun () ->
        let func code = { ret0 with Tvm.Ir.code = Array.of_list code } in
        expect_bad_file "no functions" (hostile_obj ~exports:[] []);
        expect_bad_file "export id out of range"
          (hostile_obj ~exports:[ ("f", 3) ] [ ret0 ]);
        expect_bad_file "call target out of range"
          (hostile_obj
             [ func [ Tvm.Ir.Call (None, 5, []); Tvm.Ir.Ret None ] ]);
        expect_bad_file "jump past the end"
          (hostile_obj [ func [ Tvm.Ir.Jmp 99 ] ]);
        expect_bad_file "negative jump"
          (hostile_obj [ func [ Tvm.Ir.Jmp (-1) ] ]);
        expect_bad_file "body without a terminator"
          (hostile_obj [ func [ Tvm.Ir.Mov (0, Tvm.Ir.Ki 0L) ] ]);
        expect_bad_file "register out of range"
          (hostile_obj [ func [ Tvm.Ir.Mov (7, Tvm.Ir.Ki 0L);
                                Tvm.Ir.Ret None ] ]);
        expect_bad_file "ccall import out of range"
          (hostile_obj [ func [ Tvm.Ir.Ccall (None, 2, []);
                                Tvm.Ir.Ret None ] ]);
        expect_bad_file "reloc outside the statics"
          (hostile_obj ~statics:"abcd" ~relocs:[ (100, 0) ] [ ret0 ]);
        expect_bad_file "statics beyond the region"
          (hostile_obj ~statics:(String.make (1 lsl 20) 'x') [ ret0 ]);
        expect_bad_file "digest-valid frame over a non-value"
          (Harness.unmarshalable_frame ~magic:Objfile.magic);
        (* and a well-formed hand-built object still loads *)
        let path = Filename.temp_file "terra_fuzz" ".tobj" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            Objfile.write_channel oc
              {
                Objfile.o_funcs = [| ret0 |];
                o_imports = [||];
                o_exports = [ ("f", 0) ];
                o_statics = "";
                o_statics_len = 0;
                o_relocs = [];
              };
            close_out oc;
            let obj = Objfile.load_file path in
            checki "valid hand-built object loads" 1
              (Array.length obj.Objfile.o_funcs)));
  ]

(* ------------------------------------------------------------------ *)
(* qcheck properties over the whole pipeline *)

let prop_staged_constants =
  QCheck.Test.make ~count:50 ~name:"staged lua constants come back exact"
    QCheck.(int_range (-1000000) 1000000)
    (fun k ->
      run
        (Printf.sprintf
           "local k = %d terra f() : int64 return k end print(f())" k)
      = string_of_int k)

let prop_int_expr =
  (* random arithmetic over ints evaluates the same in Terra and OCaml *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let leaf = map (fun n -> `K n) (int_range (-50) 50) in
        let rec expr n =
          if n = 0 then leaf
          else
            frequency
              [
                (1, leaf);
                (2, map2 (fun a b -> `Add (a, b)) (expr (n - 1)) (expr (n - 1)));
                (2, map2 (fun a b -> `Sub (a, b)) (expr (n - 1)) (expr (n - 1)));
                (1, map2 (fun a b -> `Mul (a, b)) (expr (n - 1)) (expr (n - 1)));
              ]
        in
        expr 4)
  in
  let rec to_terra = function
    | `K n -> Printf.sprintf "[int64](%d)" n
    | `Add (a, b) -> Printf.sprintf "(%s + %s)" (to_terra a) (to_terra b)
    | `Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_terra a) (to_terra b)
    | `Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_terra a) (to_terra b)
  in
  let rec eval = function
    | `K n -> Int64.of_int n
    | `Add (a, b) -> Int64.add (eval a) (eval b)
    | `Sub (a, b) -> Int64.sub (eval a) (eval b)
    | `Mul (a, b) -> Int64.mul (eval a) (eval b)
  in
  QCheck.Test.make ~count:40 ~name:"terra int arithmetic = ocaml" gen (fun e ->
      run
        (Printf.sprintf "terra f() : int64 return %s end print(f())"
           (to_terra e))
      = Int64.to_string (eval e))

let prop_specialization_deterministic =
  QCheck.Test.make ~count:20 ~name:"same program, same output" QCheck.int
    (fun seed ->
      let src =
        Printf.sprintf
          {|local k = %d
            terra f(x : int) : int return x * k + 1 end
            print(f(3))|}
          (seed mod 1000)
      in
      run src = run src)

(* ------------------------------------------------------------------ *)
(* Protected execution: structured diagnostics, spans, resource guards *)

let run_lua src =
  (* helper: run Lua that inspects a caught diagnostic value *)
  expect "diag" src

let diag_tests =
  [
    quick "diagnostic carries the offending line"
      (expect_diag "span" ~phase:Diag.Specialize ~code:"spec.error" ~line:5
         "local x = 1\nlocal y = 2\nterra f() : int\n  var a = 1\n  return neverdefined\nend");
    quick "typecheck diagnostic carries the offending line"
      (expect_diag "tc span" ~phase:Diag.Typecheck ~code:"tc.error" ~line:4
         "local x = 1\nterra f() : int\n  var a = 1\n  var b : bool = a\n  return 0\nend\nprint(f())");
    quick "parse error carries the line"
      (expect_diag "parse span" ~phase:Diag.Parse ~code:"parse.error" ~line:2
         "local ok = 1\nterra f( : int return 1 end");
    quick "lua runtime error becomes an eval diagnostic"
      (expect_diag "lua" ~phase:Diag.Eval ~code:"lua.error"
         "local function g() error('boom') end g()");
    quick "integer division by zero is a catchable trap"
      (expect_diag "div0" ~phase:Diag.Run ~code:"trap.divzero"
         "terra f(a : int, b : int) : int return a / b end print(f(1, 0))");
    quick "infinite terra loop returns trap.fuel within budget" (fun () ->
        let e = Engine.create ~mem_bytes:(32 * 1024 * 1024) ~fuel:100_000 () in
        match
          Engine.run_protected e "terra spin() while true do end end spin()"
        with
        | Ok _ -> Alcotest.fail "expected trap.fuel"
        | Error d ->
            checks "code" "trap.fuel" d.Diag.code;
            checkb "is_trap" true (Diag.is_trap d));
    quick "runaway lua loop returns trap.steps" (fun () ->
        let e =
          Engine.create ~mem_bytes:(32 * 1024 * 1024) ~lua_steps:10_000 ()
        in
        match Engine.run_protected e "while true do end" with
        | Ok _ -> Alcotest.fail "expected trap.steps"
        | Error d -> checks "code" "trap.steps" d.Diag.code);
    quick "lua recursion hits the depth guard catchably"
      (expect_diag "depth" ~phase:Diag.Eval ~code:"lua.error"
         "local function g() return g() end g()");
    quick "terra recursion hits the VM depth guard" (fun () ->
        let e =
          Engine.create ~mem_bytes:(32 * 1024 * 1024) ~max_call_depth:100 ()
        in
        match
          Engine.run_protected e
            "terra f(n : int) : int return f(n + 1) end print(f(0))"
        with
        | Ok _ -> Alcotest.fail "expected trap.stack"
        | Error d -> checks "code" "trap.stack" d.Diag.code);
    quick "diagnostic records the lua traceback" (fun () ->
        let e = Engine.create ~mem_bytes:(32 * 1024 * 1024) () in
        match
          Engine.run_protected e
            "local function inner() error('deep') end\n\
             local function outer() inner() end\n\
             outer()"
        with
        | Ok _ -> Alcotest.fail "expected a diagnostic"
        | Error d ->
            let names = List.map (fun fr -> fr.Diag.fr_name) d.Diag.lua_traceback in
            checkb "has inner" true (List.mem "inner" names);
            checkb "has outer" true (List.mem "outer" names));
    quick "file name threads into the span" (fun () ->
        let e = Engine.create ~mem_bytes:(32 * 1024 * 1024) () in
        match
          Engine.run_protected e ~file:"prog.t"
            "terra f() : int return neverdefined end"
        with
        | Ok _ -> Alcotest.fail "expected a diagnostic"
        | Error d -> (
            match d.Diag.span with
            | Some (f, _) -> checks "file" "prog.t" f
            | None -> Alcotest.fail "no span"));
    quick "pcall observes a terra type error with phase and line"
      (run_lua
         {|terra bad() : int
             return 1.5 > 2.0
           end
           local ok, err = pcall(function() bad() end)
           print(ok, err.phase, err.code, err.line)|}
         "false\ttypecheck\ttc.error\t2");
    quick "pcall observes a runtime trap as a structured value"
      (run_lua
         {|terra div(a : int, b : int) : int return a / b end
           local ok, err = pcall(function() return div(1, 0) end)
           print(ok, err.phase, err.code)|}
         "false\trun\ttrap.divzero");
    quick "pcall error value renders via tostring"
      (run_lua
         {|terra bad() : int return 1.5 > 2.0 end
           local ok, err = pcall(function() bad() end)
           print(ok, string.sub(tostring(err), 1, 8))|}
         "false\t<input>:");
    quick "lua error() interop still passes plain values through pcall"
      (run_lua
         {|local ok, v = pcall(function() error("plain") end)
           print(ok, v)|}
         "false\tplain");
    quick "exit codes: one_line machine format is stable" (fun () ->
        let e = Engine.create ~mem_bytes:(32 * 1024 * 1024) ~fuel:50_000 () in
        match
          Engine.run_protected e ~file:"spin.t"
            "terra spin() while true do end end spin()"
        with
        | Ok _ -> Alcotest.fail "expected trap"
        | Error d ->
            checks "one_line" "run|trap.fuel|spin.t:1|fuel exhausted"
              (Diag.one_line d));
  ]

(* Fuzz the protected boundary: random program text must always come back
   as Ok or Error Diag — never an exception, never a hang (all engines are
   resource-bounded). *)
let prop_protected_never_raises =
  let fragments =
    [|
      "terra f() : int return 1 end";
      "print(f())";
      "local x = ";
      "42";
      "end";
      "terra";
      "while true do";
      "[";
      "]";
      "f(";
      ")";
      "var x : int = 1";
      "error('x')";
      "\"unterminated";
      "struct S { x : int }";
      "@";
      "+ - */";
      "return";
      "function g()";
      "local t = {}";
      "t[1] = t";
      "0x";
      "1e999";
      ";;";
      "..";
    |]
  in
  let gen_src =
    QCheck.Gen.(
      frequency
        [
          (* token soup from plausible fragments *)
          ( 4,
            map (String.concat " ")
              (list_size (int_range 0 12)
                 (map (Array.get fragments) (int_range 0 (Array.length fragments - 1)))) );
          (* raw bytes *)
          (1, string_size ~gen:(char_range '\032' '\126') (int_range 0 80));
          (* a valid program, mutated by truncation *)
          ( 2,
            map
              (fun n ->
                let p =
                  "local k = 3 terra f(x : int) : int return x * k end \
                   print(f(7))"
                in
                String.sub p 0 (min n (String.length p)))
              (int_range 0 64) );
        ])
  in
  QCheck.Test.make ~count:60 ~name:"run_protected never raises"
    (QCheck.make gen_src) (fun src ->
      let e =
        Engine.create ~mem_bytes:(4 * 1024 * 1024) ~fuel:200_000
          ~lua_steps:50_000 ~max_call_depth:64 ()
      in
      match Engine.run_capture_protected e src with
      | _, Ok _ -> true
      | _, Error _ -> true)

let () =
  Alcotest.run "terra"
    [
      ("types", types_tests);
      ("specialize", spec_tests);
      ("typecheck", typecheck_tests);
      ("execute", exec_tests);
      ("ffi", ffi_tests);
      ("objfile", objfile_tests);
      ("diagnostics", diag_tests);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_staged_constants;
          QCheck_alcotest.to_alcotest prop_int_expr;
          QCheck_alcotest.to_alcotest prop_specialization_deterministic;
          QCheck_alcotest.to_alcotest prop_protected_never_raises;
        ] );
    ]
