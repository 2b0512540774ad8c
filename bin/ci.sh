#!/bin/sh
# CI entry point: full build, full test suite, and the paper example
# programs as smoke tests (fuel-bounded so a regression cannot hang CI).
set -eu

cd "$(dirname "$0")/.."

echo "== one decoder, one JSON escaper =="
# Marshaled data read back from disk is decoded only by Terra.Blobio (the
# guarded decode), and JSON strings are escaped only by Tprof.Json; a
# second copy of either under lib/ fails here.
strays=$( {
  grep -rn --include='*.ml' 'Marshal\.from_string' lib \
    | grep -v '^lib/terra/blobio\.ml:'
  grep -rnE --include='*.ml' "json_escape|'\"' *-> *Buffer\.add_string" lib \
    | grep -v '^lib/tprof/json\.ml:'
} || true)
if [ -n "$strays" ]; then
  echo "$strays" >&2
  echo "unmarshal outside Blobio or JSON escaping outside Tprof.Json" >&2
  exit 1
fi

echo "== one page ledger =="
# Engine state is digested, imaged and reset only through Tvm.Pages, so
# its cost follows the pages a request touches: a whole-buffer digest or
# fill elsewhere in lib/tvm, or raw arena access anywhere in lib/, fails
# here.
strays=$( {
  grep -rnE --include='*.ml' \
    'Digest\.(bytes|subbytes)|Bytes\.fill +[^ ]+ +0 +\(Bytes\.length' lib/tvm \
    | grep -v '^lib/tvm/pages\.ml:'
  grep -rnE --include='*.ml' --include='*.mli' 'unsafe_bytes|unsafe_map' lib
} || true)
if [ -n "$strays" ]; then
  echo "$strays" >&2
  echo "engine state handled outside Tvm.Pages" >&2
  exit 1
fi

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== example program smoke tests =="
for prog in examples/programs/*.t; do
  echo "-- $prog"
  timeout 120 dune exec bin/terra_run.exe -- --fuel 2000000000 "$prog" \
    > /dev/null
done

echo "== example program smoke tests (checked) =="
# Same programs again under TerraSan.  paper_surface.t keeps heap buffers
# (DataTable columns, Orion pipeline images) alive until engine teardown,
# so its leak check is opted out; everything else must be leak-clean too.
for prog in examples/programs/*.t; do
  echo "-- $prog [checked]"
  case "$prog" in
  *paper_surface.t) extra="--no-leak-check" ;;
  *) extra="" ;;
  esac
  timeout 120 dune exec bin/terra_run.exe -- --checked $extra \
    --fuel 2000000000 "$prog" > /dev/null
done

echo "== optimizer differential (examples at --opt=0 vs --opt=2) =="
# Topt must be semantics-preserving: every example program has to print
# byte-identical output with the optimizer off and fully on.
opt0_out=$(mktemp) opt2_out=$(mktemp)
trap 'rm -f "$opt0_out" "$opt2_out"' EXIT
for prog in examples/programs/*.t; do
  echo "-- $prog [opt-diff]"
  timeout 120 dune exec bin/terra_run.exe -- --opt=0 --fuel 2000000000 \
    "$prog" > "$opt0_out"
  timeout 120 dune exec bin/terra_run.exe -- --opt=2 --fuel 2000000000 \
    "$prog" > "$opt2_out"
  diff "$opt0_out" "$opt2_out"
done

echo "== optimizer fuel reduction (mandelbrot) =="
f0=$(dune exec bin/terra_run.exe -- --opt=0 --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
f2=$(dune exec bin/terra_run.exe -- --opt=2 --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
echo "mandelbrot fuel: opt0=$f0 opt2=$f2"
if [ "$f2" -ge "$f0" ]; then
  echo "optimizer did not reduce retired instructions" >&2
  exit 1
fi

echo "== checked-mode overhead bound (mandelbrot) =="
# TerraSan must not change the instruction stream: measure baseline fuel,
# then require the checked run to finish within 3x that budget.
base=$(dune exec bin/terra_run.exe -- --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
echo "baseline fuel: $base"
timeout 120 dune exec bin/terra_run.exe -- --checked --fuel $((3 * base)) \
  examples/programs/mandelbrot.t > /dev/null
echo "checked mandelbrot within 3x fuel budget"

echo "== transactional parity (golden buggy programs) =="
# Running a program inside a supervised transaction must not change what
# the program reports: same exit code as the plain checked run.  The
# --verify-rollback flag additionally asserts the session fingerprint
# (heap bytes + allocator + sanitizer shadow state, i.e. including the
# leak ledger) is byte-identical after a rolled-back failure — a
# mismatch exits 3 and breaks parity below.
for prog in test/programs/*.t; do
  echo "-- $prog [transact-parity]"
  rc_plain=0
  timeout 120 dune exec bin/terra_run.exe -- --checked --fuel 2000000000 \
    "$prog" > /dev/null 2>&1 || rc_plain=$?
  rc_txn=0
  timeout 120 dune exec bin/terra_run.exe -- --checked --transact \
    --verify-rollback --fuel 2000000000 "$prog" > /dev/null 2>&1 \
    || rc_txn=$?
  if [ "$rc_plain" -ne "$rc_txn" ]; then
    echo "exit-code divergence for $prog: plain=$rc_plain transact=$rc_txn" >&2
    exit 1
  fi
done

echo "== batch runner smoke =="
batch_out=$(mktemp)
timeout 240 dune exec bin/terra_run.exe -- --batch examples/batch.manifest \
  > "$batch_out"
python3 - "$batch_out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "terra-batch-2", report.get("schema")
rows = report["requests"]
assert rows, "batch report is empty"
assert all(r["status"] == "ok" for r in rows), rows
prof = report["profile"]
assert prof["schema"] == "terra-prof-1", prof.get("schema")
assert prof["total_retired"] > 0, prof
print("batch report: %d requests, all ok (profile: %d instructions)"
      % (len(rows), prof["total_retired"]))
PY
rm -f "$batch_out"

echo "== parallel batch gate (--jobs byte-identity) =="
# Explicit --jobs routes the batch through the domain pool with a
# private engine per worker; the report must be byte-identical for
# every worker count, including the mixed good/san-trap/leak corpus
# whose diagnostics embed heap addresses.
par_manifest=$(mktemp) par_a=$(mktemp) par_b=$(mktemp)
root=$(pwd)
{
  echo "$root/examples/programs/mandelbrot.t fuel=2000000000 tenant=alice"
  echo "$root/test/programs/double_free.t tenant=mallory"
  echo "$root/test/programs/use_after_free.t tenant=mallory"
  echo "$root/test/programs/leak.t tenant=frank"
  echo "$root/test/programs/invalid_free.t tenant=mallory"
  echo "$root/examples/programs/mandelbrot.t fuel=2000000000 tenant=alice"
} > "$par_manifest"
# the buggy rows make the batch exit nonzero by design; the gate is
# that both runs agree on the exit code and the report bytes
rc_a=0 rc_b=0
t0=$(date +%s%N)
timeout 240 dune exec bin/terra_run.exe -- --checked \
  --batch "$par_manifest" --jobs 1 > "$par_a" || rc_a=$?
t1=$(date +%s%N)
timeout 240 dune exec bin/terra_run.exe -- --checked \
  --batch "$par_manifest" --jobs 4 > "$par_b" || rc_b=$?
t2=$(date +%s%N)
if [ "$rc_a" -ne "$rc_b" ]; then
  echo "exit-code divergence: jobs=1 rc=$rc_a, jobs=4 rc=$rc_b" >&2
  exit 1
fi
diff "$par_a" "$par_b"
echo "jobs=1 and jobs=4 batch reports byte-identical (rc=$rc_a)"
ms1=$(( (t1 - t0) / 1000000 )) ms4=$(( (t2 - t1) / 1000000 ))
echo "wall: jobs=1 ${ms1}ms, jobs=4 ${ms4}ms"
if [ "$(nproc)" -ge 4 ]; then
  # four workers must buy at least a 1.67x speedup on real silicon; on
  # narrower CI boxes only the identity gate above is meaningful
  if [ $(( ms4 * 10 )) -gt $(( ms1 * 6 )) ]; then
    echo "jobs=4 wall ${ms4}ms exceeds 0.6x of jobs=1 wall ${ms1}ms" >&2
    exit 1
  fi
  echo "jobs=4 within 0.6x of jobs=1 wall clock"
else
  echo "(fewer than 4 cores: speedup gate skipped, identity gate enforced)"
fi
rm -f "$par_manifest" "$par_a" "$par_b"

echo "== serve smoke =="
# The daemon front end: pipe the example session through terra_serve and
# check every response parses, failed requests roll back verified, and
# the drain is clean (the daemon's own exit code is 0 iff the pool held
# no leaked blocks at shutdown — set -eu turns a leak into a CI failure).
serve_out=$(mktemp)
timeout 240 dune exec bin/terra_serve.exe -- --quiet \
  < examples/serve_session.jsonl > "$serve_out"
python3 - "$serve_out" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
runs = [l for l in lines if l.get("schema") == "terra-batch-2"]
assert runs, "no run responses"
for r in runs:
    assert r["status"] in ("ok", "error"), r
    if r["status"] == "error":
        assert r["rollback"] == "verified", r
oks = [r for r in runs if r["status"] == "ok"]
assert oks and all(r["exit"] == 0 for r in oks), oks
assert any(r["retries"] > 0 for r in runs), "injected fault was not retried"
drain = lines[-1]
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("serve smoke: %d responses (%d runs), drain clean"
      % (len(lines), len(runs)))
PY
rm -f "$serve_out"

echo "== profiler gate =="
# Tprof must (a) emit valid terra-prof-1 JSON whose totals tie out,
# (b) cost zero modeled instructions when off, and (c) render
# byte-identical deterministic text profiles across runs.
prof_out=$(mktemp) prof_a=$(mktemp) prof_b=$(mktemp)
for prog in examples/programs/*.t; do
  echo "-- $prog [profile-json]"
  timeout 120 dune exec bin/terra_run.exe -- --profile=json --report-fuel \
    --fuel 2000000000 "$prog" > /dev/null 2> "$prof_out"
  python3 - "$prof_out" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
fuel = next(int(l.split()[1]) for l in lines if l.startswith("fuel:"))
prof = json.loads(next(l for l in lines if l.startswith("{")))
assert prof["schema"] == "terra-prof-1", prof.get("schema")
assert prof["total_retired"] == fuel, (prof["total_retired"], fuel)
assert isinstance(prof["functions"], list) and prof["functions"]
for f in prof["functions"]:
    assert 0 <= f["self"] <= f["total"] <= prof["total_retired"], f
assert sum(f["self"] for f in prof["functions"]) <= prof["total_retired"]
print("profile ok: %d instructions, %d functions"
      % (fuel, len(prof["functions"])))
PY
done
echo "-- zero overhead when off (mandelbrot)"
f_off=$(dune exec bin/terra_run.exe -- --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
f_on=$(dune exec bin/terra_run.exe -- --profile=json --report-fuel \
  examples/programs/mandelbrot.t 2>&1 >/dev/null | sed -n 's/^fuel: //p')
echo "fuel off=$f_off on=$f_on"
if [ "$f_off" -ne "$f_on" ]; then
  echo "profiling changed the modeled instruction stream" >&2
  exit 1
fi
echo "-- deterministic text profile (mandelbrot)"
dune exec bin/terra_run.exe -- --profile=text \
  examples/programs/mandelbrot.t 2> "$prof_a" > /dev/null
dune exec bin/terra_run.exe -- --profile=text \
  examples/programs/mandelbrot.t 2> "$prof_b" > /dev/null
diff "$prof_a" "$prof_b"
echo "profiles byte-identical across runs"
rm -f "$prof_out" "$prof_a" "$prof_b"

echo "== compilation cache gate =="
# A cold pass populates the cache; the warm pass over the same programs
# must compile nothing (zero jit.compile visits, so zero compile-phase
# wall-ms) and hit for every function.  Then every entry is corrupted in
# place: the next run must report structured bad entries, produce
# byte-identical output, and self-heal so a final run hits again.
cache_dir=$(mktemp -d) cache_prof=$(mktemp) cache_ref=$(mktemp) \
  cache_got=$(mktemp)
trap 'rm -rf "$opt0_out" "$opt2_out" "$cache_dir" "$cache_prof" \
  "$cache_ref" "$cache_got"' EXIT
for prog in examples/programs/*.t; do
  echo "-- $prog [cache-cold]"
  timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
    --fuel 2000000000 "$prog" > /dev/null
done
for prog in examples/programs/*.t; do
  echo "-- $prog [cache-warm]"
  timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
    --profile=json --fuel 2000000000 "$prog" > /dev/null 2> "$cache_prof"
  python3 - "$cache_prof" <<'PY'
import json, sys
prof = json.loads(next(l for l in open(sys.argv[1]) if l.startswith("{")))
phases = {p["name"]: p for p in prof["phases"]}
hits = phases.get("jit.ccache.hit", {"count": 0})["count"]
misses = phases.get("jit.ccache.miss", {"count": 0})["count"]
compiles = phases.get("jit.compile", {"count": 0})["count"]
ms = (phases.get("jit.compile", {"ms": 0.0})["ms"]
      + phases.get("jit.optimize", {"ms": 0.0})["ms"])
assert hits > 0, "warm run never hit the cache: %s" % sorted(phases)
assert misses == 0, "warm run missed %d times" % misses
assert compiles == 0, "warm run compiled %d functions" % compiles
assert ms == 0.0, "warm run spent %.3f compile-phase ms" % ms
print("warm cache: %d hits, 0 misses, 0.0 compile-phase ms" % hits)
PY
done
echo "-- corrupt-entry self-heal (mandelbrot)"
timeout 120 dune exec bin/terra_run.exe -- --fuel 2000000000 \
  examples/programs/mandelbrot.t > "$cache_ref"
python3 - "$cache_dir" <<'PY'
import os, sys
d = sys.argv[1]
entries = [f for f in os.listdir(d) if f.endswith(".tcc")]
assert entries, "cache dir is empty"
for f in entries:
    p = os.path.join(d, f)
    data = bytearray(open(p, "rb").read())
    data[len(data) // 2] ^= 0x5A
    open(p, "wb").write(bytes(data))
print("corrupted %d cache entries in place" % len(entries))
PY
timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
  --profile=json --fuel 2000000000 examples/programs/mandelbrot.t \
  > "$cache_got" 2> "$cache_prof"
diff "$cache_ref" "$cache_got"
python3 - "$cache_prof" <<'PY'
import json, sys
prof = json.loads(next(l for l in open(sys.argv[1]) if l.startswith("{")))
phases = {p["name"]: p for p in prof["phases"]}
bad = phases.get("jit.ccache.bad-entry", {"count": 0})["count"]
stores = phases.get("jit.ccache.store", {"count": 0})["count"]
assert bad > 0, "corruption went undetected: %s" % sorted(phases)
assert stores >= bad, "bad entries were not re-stored"
print("corrupt entries: %d structured bad-entry recompiles, output "
      "byte-identical" % bad)
PY
timeout 120 dune exec bin/terra_run.exe -- --cache "$cache_dir" \
  --profile=json --fuel 2000000000 examples/programs/mandelbrot.t \
  > /dev/null 2> "$cache_prof"
python3 - "$cache_prof" <<'PY'
import json, sys
prof = json.loads(next(l for l in open(sys.argv[1]) if l.startswith("{")))
phases = {p["name"]: p for p in prof["phases"]}
assert phases.get("jit.ccache.hit", {"count": 0})["count"] > 0, \
    "healed entry did not hit"
assert phases.get("jit.compile", {"count": 0})["count"] == 0, phases
print("self-heal verified: corrupted entries were overwritten and hit")
PY

echo "== durable recovery gate =="
# Write-ahead journal + checkpoints: a session killed at a durability
# event and recovered must land exactly on the committed prefix.  The
# reference run interleaves a status probe after every request, so the
# reference state at every committed seq K is on record; each crashed
# run uses the identical input, so recovery at K must reproduce the
# K-th reference status byte-for-byte (modulo the "durable" block).
dur_in=$(mktemp) dur_ref=$(mktemp) dur_out=$(mktemp) dur_err=$(mktemp)
dur_root=$(mktemp -d)
trap 'rm -rf "$opt0_out" "$opt2_out" "$cache_dir" "$cache_prof" \
  "$cache_ref" "$cache_got" "$dur_in" "$dur_ref" "$dur_out" \
  "$dur_err" "$dur_root"' EXIT
python3 - "$dur_in" <<'PY'
import json, sys
good = "terra f() return 40 + 2 end print(f())"
div = "terra d(n : int32) return 10 / n end print(d(0))"
with open(sys.argv[1], "w") as f:
    f.write(json.dumps({"op": "status"}) + "\n")
    for i in range(60):
        if i % 4 == 3:
            f.write(json.dumps({"src": div, "retries": 0,
                                "tenant": "mallory"}) + "\n")
        else:
            f.write(json.dumps({"src": good, "tenant": "alice"}) + "\n")
        f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
PY
serve_durable="dune exec bin/terra_serve.exe -- --quiet --mem 16000000 \
  --ckpt-interval 8"
timeout 300 $serve_durable --durable "$dur_root/ref" < "$dur_in" > "$dur_ref"
for n in 1 2 3 17 64 99 131; do
  echo "-- crash at durability event $n"
  rc=0
  timeout 300 $serve_durable --durable "$dur_root/c$n" --crash-at "$n" \
    < "$dur_in" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "crash-at $n exited $rc, expected 137" >&2
    exit 1
  fi
  if [ "$n" -le 2 ]; then
    # killed before the first checkpoint's rename completed (event 1 is
    # its temp write, event 2 its rename): recovery must fail with a
    # structured diagnostic, not a crash
    rc=0
    printf '{"op":"shutdown"}\n' | timeout 300 $serve_durable \
      --recover "$dur_root/c$n" > /dev/null 2> "$dur_err" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "recover.no-checkpoint" "$dur_err"; then
      echo "pre-checkpoint recovery: rc=$rc" >&2
      cat "$dur_err" >&2
      exit 1
    fi
  else
    printf '{"op":"status"}\n{"op":"shutdown"}\n' | timeout 300 \
      $serve_durable --recover "$dur_root/c$n" > "$dur_out"
    python3 - "$dur_ref" "$dur_out" <<'PY'
import json, sys
ref = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_served = {s["served"]: s for s in ref if s.get("op") == "status"}
out = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
report, status, drain = out[0], out[1], out[-1]
assert report["op"] == "recover", report
assert report["discarded"] in (0, 1), report
assert report["torn"] is None, report
k = report["seq"]
want = dict(by_served[k]); want.pop("durable")
got = dict(status); got.pop("durable")
assert got == want, (k, got, want)
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("recovered to seq %d: status byte-identical to the reference" % k)
PY
  fi
done

echo "== durable parallel gate (--workers 4 kill points) =="
# The same WAL/checkpoint/recovery contract under 4 worker domains.  A
# sequential durable reference run (status probe after every request)
# records the state at every committed seq K; a run killed at a
# durability event under --workers 4 must recover to exactly the
# reference state at its committed K.  One tenant per request keeps
# admission scheduling-independent; engine slot placement is the
# scheduler's choice, so the pool block (and the pool-wide live_bytes
# sum) is excluded from the comparison.
par_dur_in=$(mktemp) par_dur_ref=$(mktemp) par_dur_out=$(mktemp)
trap 'rm -rf "$opt0_out" "$opt2_out" "$cache_dir" "$cache_prof" \
  "$cache_ref" "$cache_got" "$dur_in" "$dur_ref" "$dur_out" \
  "$dur_err" "$dur_root" "$par_dur_in" "$par_dur_ref" "$par_dur_out"' EXIT
python3 - "$par_dur_in" <<'PY'
import json, sys
good = "terra f() return 40 + 2 end print(f())"
div = "terra d(n : int32) return 10 / n end print(d(0))"
with open(sys.argv[1], "w") as f:
    f.write(json.dumps({"op": "status"}) + "\n")
    # warm all four slots first (round-robin checkout), so no later
    # request pays a first-compile that depends on which slot it lands
    for i in range(4):
        f.write(json.dumps({"src": good, "tenant": "warm%d" % i}) + "\n")
        f.write(json.dumps({"op": "status"}) + "\n")
    for i in range(48):
        src = div if i % 3 == 2 else good
        f.write(json.dumps({"src": src, "retries": 0,
                            "tenant": "t%02d" % i}) + "\n")
        f.write(json.dumps({"op": "status"}) + "\n")
    f.write(json.dumps({"op": "shutdown"}) + "\n")
PY
serve_par="dune exec bin/terra_serve.exe -- --quiet --pool 4 \
  --mem 16000000 --ckpt-interval 8"
timeout 300 $serve_par --durable "$dur_root/par-ref" < "$par_dur_in" \
  > "$par_dur_ref"
# 52 requests, interval 8: events = 3 (initial ckpt) + 104 (begin/end)
# + 18 (6 checkpoints) = 125
for n in 3 33 90 124; do
  echo "-- crash at durability event $n (--workers 4)"
  rc=0
  timeout 300 $serve_par --workers 4 --durable "$dur_root/par-c$n" \
    --crash-at "$n" < "$par_dur_in" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 137 ]; then
    echo "parallel crash-at $n exited $rc, expected 137" >&2
    exit 1
  fi
  printf '{"op":"status"}\n{"op":"shutdown"}\n' | timeout 300 \
    $serve_par --workers 4 --recover "$dur_root/par-c$n" > "$par_dur_out"
  python3 - "$par_dur_ref" "$par_dur_out" <<'PY'
import json, sys
ref = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_served = {s["served"]: s for s in ref if s.get("op") == "status"}
out = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
report, status, drain = out[0], out[1], out[-1]
assert report["op"] == "recover", report
# commits land in response order, so open begins are bounded by the
# checkpoint interval, not the pool size
assert 0 <= report["discarded"] <= 8, report
assert report["torn"] is None, report
k = report["seq"]
want = dict(by_served[k]); got = dict(status)
for s in (want, got):
    for key in ("durable", "pool", "live_bytes"):
        s.pop(key)
assert got == want, (k, got, want)
assert drain["op"] == "shutdown" and drain["status"] == "clean", drain
print("workers-4 crash recovered to seq %d: served and tenant state "
      "identical to the sequential reference" % k)
PY
done

echo "CI OK"
