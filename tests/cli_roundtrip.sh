#!/usr/bin/env bash
# Integration test for the `arams` CLI: generate → info → sketch → pipeline
# round trip in a temp dir. The binary path arrives in $ARAMS_BIN.
set -euo pipefail

BIN="${ARAMS_BIN:?ARAMS_BIN must point at the arams binary}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# generate all workload kinds
"$BIN" generate --kind=beam --frames=80 --size=24 \
  --out="$DIR/beam.frames" --truth="$DIR/beam_truth.csv"
"$BIN" generate --kind=diffraction --frames=80 --size=24 --classes=3 \
  --out="$DIR/diff.frames"
"$BIN" generate --kind=speckle --frames=20 --size=24 \
  --out="$DIR/speckle.frames"
"$BIN" info --in="$DIR/speckle.frames" | grep -q "20 frames"
test -s "$DIR/beam.frames"
test -s "$DIR/beam_truth.csv"

# info must describe the bundle
"$BIN" info --in="$DIR/beam.frames" | grep -q "80 frames of 24x24"

# sketch → npy, then info on the npy
"$BIN" sketch --in="$DIR/beam.frames" --ell=16 --out="$DIR/sketch.npy" \
  --report-error | grep -q "relative covariance error"
"$BIN" info --in="$DIR/sketch.npy" | grep -q "float64 matrix"

# compare reports an error within the FD bound
"$BIN" compare --data="$DIR/beam.frames" --sketch="$DIR/sketch.npy" \
  | grep -q "covariance error"

# diag runs the CUSUM monitors and emits frame statistics
"$BIN" diag --in="$DIR/beam.frames" --warmup=20 --mean="$DIR/mean.pgm" \
  --mask-report | grep -q "monitored 80 shots"
test -s "$DIR/mean.pgm"
head -c 2 "$DIR/mean.pgm" | grep -q "P5"

# pipeline with both clusterers, emitting CSV + HTML
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=optics \
  --center=false --csv="$DIR/o.csv" --html="$DIR/o.html"
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=hdbscan \
  --center=false --csv="$DIR/h.csv"
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=kmeans --k=3 \
  --center=false --csv="$DIR/k.csv"
grep -q "shot,x,y,label" "$DIR/k.csv"

# every factory-registered sketcher backend must run the sketch command in
# both ingest lanes and the full DAQ replay (`monitor`) end-to-end; the
# listing leads with a '#'-prefixed build-info stamp that name consumers
# must skip
"$BIN" backends | grep -q "rangefinder"
"$BIN" backends | head -1 | grep -q "^# arams version="
test "$("$BIN" backends | grep -vc '^#')" -ge 7
for sk in $("$BIN" backends | grep -v '^#' | cut -f1); do
  "$BIN" sketch --in="$DIR/beam.frames" --ell=12 --sketcher="$sk" \
    --out="$DIR/sk_$sk.npy" >/dev/null
  test -s "$DIR/sk_$sk.npy"
  "$BIN" sketch --in="$DIR/beam.frames" --ell=12 --sketcher="$sk" \
    --ingest-precision=fp32 --out="$DIR/sk32_$sk.npy" \
    | grep -q "fp32 lane, 80 fp32 rows"
  test -s "$DIR/sk32_$sk.npy"
  "$BIN" monitor --in="$DIR/beam.frames" --batch=16 --ell=8 --queue=32 \
    --fps=20000 --sketcher="$sk" | grep -q "monitored 80 shots"
done

# the two-stage pipeline accepts --sketcher too
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=kmeans --k=3 --ell=8 \
  --sketcher=rangefinder --center=false --csv="$DIR/rf.csv"
grep -q "shot,x,y,label" "$DIR/rf.csv"

# the mixed-precision ingest lane: sketch/pipeline/monitor all accept
# --ingest-precision=fp32, and the fp32 sketch stays close to the fp64 one
"$BIN" sketch --in="$DIR/beam.frames" --ell=16 --ingest-precision=fp32 \
  --out="$DIR/sketch32.npy" | grep -q "fp32 lane, 80 fp32 rows"
"$BIN" compare --data="$DIR/beam.frames" --sketch="$DIR/sketch32.npy" \
  | grep -q "covariance error"
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=kmeans --k=3 --ell=8 \
  --ingest-precision=fp32 --center=false --csv="$DIR/k32.csv"
grep -q "shot,x,y,label" "$DIR/k32.csv"
test "$(wc -l < "$DIR/k32.csv")" -eq 81
"$BIN" monitor --in="$DIR/beam.frames" --batch=16 --ell=8 --queue=32 \
  --fps=20000 --ingest-precision=fp32 | grep -q "monitored 80 shots"
if "$BIN" sketch --in="$DIR/beam.frames" --ingest-precision=fp16 \
  2>/dev/null; then exit 1; fi

# sketch with each residual estimator
for est in gaussian hutchinson hutchpp; do
  "$BIN" sketch --in="$DIR/beam.frames" --ell=12 --estimator="$est" \
    --out="$DIR/s_$est.npy" >/dev/null
  test -s "$DIR/s_$est.npy"
done
head -1 "$DIR/o.csv" | grep -q "shot,x,y,label"
grep -q "<svg" "$DIR/o.html"
# CSV has one row per shot plus header
test "$(wc -l < "$DIR/h.csv")" -eq 81

# telemetry: the pipeline emits a Chrome trace with every stage span nested
# under pipeline.analyze, and metrics as one JSON object per line
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=kmeans --k=3 --ell=8 \
  --center=false --trace-out="$DIR/trace.json" \
  --metrics-out="$DIR/metrics.jsonl" | grep -q "Chrome trace written"
python3 - "$DIR/trace.json" "$DIR/metrics.jsonl" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
names = {e["name"] for e in events}
stages = {"pipeline.analyze", "pipeline.preprocess", "pipeline.sketch",
          "pipeline.project", "pipeline.embed", "pipeline.cluster"}
missing = stages - names
assert not missing, f"missing stage spans: {missing}"
root = next(e for e in events if e["name"] == "pipeline.analyze")
assert root["args"]["depth"] == 0
for name in stages - {"pipeline.analyze"}:
    event = next(e for e in events if e["name"] == name)
    assert event["args"]["depth"] >= 1, f"{name} not nested"
metrics = [json.loads(line) for line in open(sys.argv[2])]
kinds = {(m["type"], m["name"]) for m in metrics}
assert ("counter", "fd.shrink_count") in kinds, kinds
assert ("histogram", "fd.shrink_seconds") in kinds, kinds
EOF

# --prom-out emits Prometheus text exposition: every metric that appears
# in the JSON-lines dump must have a HELP/TYPE header and a sample line
"$BIN" pipeline --in="$DIR/diff.frames" --clusterer=kmeans --k=3 --ell=8 \
  --center=false --metrics-out="$DIR/metrics2.jsonl" \
  --prom-out="$DIR/arams.prom" | grep -q "Prometheus snapshot written"
python3 - "$DIR/arams.prom" "$DIR/metrics2.jsonl" <<'EOF'
import json, re, sys
text = open(sys.argv[1]).read()
helps = set(re.findall(r"^# HELP (\S+)", text, re.M))
types = dict(re.findall(r"^# TYPE (\S+) (\S+)", text, re.M))
samples = set(re.findall(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[^}]*\})? ", text, re.M))
assert helps, "no HELP lines in exposition"
assert set(types) == helps, "HELP and TYPE families disagree"
for family, kind in types.items():
    assert kind in {"counter", "gauge", "histogram", "summary", "untyped"}, kind
    # every family must expose at least one sample (histograms/summaries
    # use suffixed series names)
    assert any(s == family or s.startswith(family + "_") for s in samples), \
        f"family {family} has no samples"
assert "arams_build_info" in types and types["arams_build_info"] == "gauge"
info = re.search(r'^arams_build_info\{([^}]*)\} 1$', text, re.M)
assert info, "arams_build_info sample missing or not constant 1"
for label in ("version=", "git=", "compiler=", "march=", "sanitize=",
              "build_type="):
    assert label in info.group(1), f"build_info missing {label}"
# spec conformance: every counter family carries the _total suffix, and
# HELP precedes TYPE for each family
for family, kind in types.items():
    if kind == "counter":
        assert family.endswith("_total"), f"counter {family} lacks _total"
for family in types:
    help_pos = text.index(f"# HELP {family} ")
    type_pos = text.index(f"# TYPE {family} ")
    assert help_pos < type_pos, f"TYPE precedes HELP for {family}"
def prom_name(raw, kind):
    name = "arams_" + re.sub(r"[^a-zA-Z0-9_:]", "_", raw)
    if kind == "counter" and not name.endswith("_total"):
        name += "_total"
    return name
for line in open(sys.argv[2]):
    metric = json.loads(line)
    assert prom_name(metric["name"], metric["type"]) in types, \
        f"{metric['name']} missing from Prometheus exposition"
EOF

# monitor replays a run through the streaming monitor: a NaN burst must
# surface in the health log and the published snapshot must parse
"$BIN" monitor --in="$DIR/beam.frames" --batch=16 --ell=8 --queue=32 \
  --fps=20000 --publish-every=2 --prom-out="$DIR/monitor.prom" \
  --health-log="$DIR/health.jsonl" --nan-from=20 --nan-count=10 \
  --flight-recorder="$DIR/flight.jsonl" --profile-out="$DIR/prof.folded" \
  | grep -q "rejected 10 non-finite frames"
test -s "$DIR/monitor.prom"
grep -q "arams_health_observed_state" "$DIR/monitor.prom"
grep -q "arams_monitor_nonfinite_frames_total 10" "$DIR/monitor.prom"
grep -q "arams_build_info{" "$DIR/monitor.prom"
# the flight journal saw both the ingests and the NaN rejections
test -s "$DIR/flight.jsonl"
grep -q '"code":"frame_ingested"' "$DIR/flight.jsonl"
grep -q '"code":"frame_rejected"' "$DIR/flight.jsonl"
grep -q '"code":"batch_sketched"' "$DIR/flight.jsonl"
test -f "$DIR/prof.folded"
python3 - "$DIR/health.jsonl" <<'EOF'
import json, sys
incidents = [json.loads(line) for line in open(sys.argv[1])]
assert incidents, "NaN burst produced no health incidents"
assert any(i["to"] in ("degraded", "critical") for i in incidents), incidents
for i in incidents:
    assert {"t", "from", "to", "reason"} <= set(i), i
EOF

# unknown command and missing input fail loudly
if "$BIN" frobnicate 2>/dev/null; then exit 1; fi
if "$BIN" sketch --in="$DIR/missing.frames" 2>/dev/null; then exit 1; fi

# crafted headers fail closed: exit status 1 and an `error:` line naming
# the file, for a .npy whose shape product wraps 64 bits (2^62 x 4) and a
# .frames bundle claiming 2^40 frames
python3 - "$DIR/huge_shape.npy" "$DIR/huge_count.frames" <<'EOF'
import struct, sys
header = ("{'descr': '<f8', 'fortran_order': False, "
          "'shape': (4611686018427387904, 4), }")
header = header.ljust(128 - 10 - 1) + "\n"
with open(sys.argv[1], "wb") as f:
    f.write(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)))
    f.write(header.encode())
with open(sys.argv[2], "wb") as f:
    f.write(b"ARAMSFR1" + struct.pack("<QQQ", 4, 4, 1 << 40))
    f.write(bytes(4 * 4 * 8))
EOF
for bad in huge_shape.npy huge_count.frames; do
  status=0
  "$BIN" sketch --in="$DIR/$bad" --out="$DIR/bad.npy" \
    >/dev/null 2>"$DIR/bad.err" || status=$?
  test "$status" -eq 1
  grep -q "^error: " "$DIR/bad.err"
  grep -qF "$DIR/$bad" "$DIR/bad.err"
done

# doctor rejects garbage and missing files
if "$BIN" doctor "$DIR/missing.txt" 2>/dev/null; then exit 1; fi
echo "not a postmortem" > "$DIR/garbage.txt"
if "$BIN" doctor "$DIR/garbage.txt" 2>/dev/null; then exit 1; fi

# doctor accepts a complete dump, and refuses the same dump cut before its
# [end] marker: exit status 1 and a `doctor: INVALID` line
cat > "$DIR/dump.txt" <<'EOF'
ARAMS-POSTMORTEM v1
reason=signal:SIGSEGV
pid=4242
uptime=12.500000
build=version=1.0.0 git=abc1234 compiler=GNU march=baseline
[backtrace]
./arams(+0x1234) [0x55]
[flight-recorder]
t=12.400000 code=batch_sketched shot=17 d=64 v=0.003000 tid=0
[metrics]
arams_fd_shrink_count_total 9
[health]
{"t":12.1,"from":"ok","to":"degraded","reason":"x"}
[end]
EOF
"$BIN" doctor "$DIR/dump.txt" | grep -q "^doctor: OK"
sed '/^\[end\]$/,$d' "$DIR/dump.txt" > "$DIR/cut.txt"
status=0
"$BIN" doctor "$DIR/cut.txt" >/dev/null 2>"$DIR/doctor.err" || status=$?
test "$status" -eq 1
grep -q "^doctor: INVALID" "$DIR/doctor.err"

echo "cli round trip OK"
