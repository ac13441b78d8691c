#!/usr/bin/env bash
# Doc lint: every metric name registered against obs::metrics() (or a
# HealthMonitor-injected registry) in src/ or tools/ must appear in
# docs/TELEMETRY.md, and the doc's trace-span list must match the spans
# src/ emits, so the operator-facing catalogue cannot silently rot.
#
# Scans for literal first arguments to counter/gauge/histogram/ewma/
# sliding_histogram. StageReport reads (`report.counter(...)`) are per-run
# outputs, not registry names, and are excluded. The pipeline composes its
# per-stage names from the FlightStage table in src/obs/flight_recorder.cpp,
# so they are read from there (see the stage check below). Other dynamically
# composed names — `pool.worker.<i>.*`, the BoundedQueue `<prefix>.*` family
# — can't be greped for; they are documented as patterns and covered by the
# exporter tests instead.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DOC="$ROOT/docs/TELEMETRY.md"
test -r "$DOC" || { echo "missing $DOC" >&2; exit 1; }

names="$(
  grep -rhE '(counter|gauge|histogram|ewma|sliding_histogram)\(\s*"' \
      "$ROOT/src" "$ROOT/tools" --include='*.cpp' --include='*.hpp' \
    | grep -vE 'report(\.|->)' \
    | grep -oE '(counter|gauge|histogram|ewma|sliding_histogram)\(\s*"[^"]+"' \
    | sed -E 's/.*"([^"]+)"$/\1/' \
    | sort -u
)"

missing=0
while IFS= read -r name; do
  [ -n "$name" ] || continue
  if ! grep -qF "$name" "$DOC"; then
    echo "undocumented metric: $name — add it to docs/TELEMETRY.md" >&2
    missing=1
  fi
done <<< "$names"

# The flight-recorder decision codes are operator-facing too: every
# FlightCode string the recorder can journal must appear in the
# TELEMETRY.md event-code table.
codes="$(
  grep -oE 'case FlightCode::k[A-Za-z]+: return "[^"]+"' \
      "$ROOT/src/obs/flight_recorder.cpp" \
    | sed -E 's/.*return "([^"]+)"$/\1/' \
    | sort -u
)"
test -n "$codes" || { echo "no FlightCode names found" >&2; exit 1; }
while IFS= read -r code; do
  [ -n "$code" ] || continue
  if ! grep -qF "\`$code\`" "$DOC"; then
    echo "undocumented flight-recorder event code: \`$code\` — add it to docs/TELEMETRY.md" >&2
    missing=1
  fi
done <<< "$codes"

# The Fig. 4 stages: the pipeline's StageScope composes each stage's span
# `pipeline.<stage>` and sliding window `pipeline.<stage>_seconds_window`
# from the FlightStage names, so every stage must have its window in the
# metrics table and (below) its span under "Trace spans".
stages="$(
  grep -oE 'case FlightStage::k[A-Za-z]+: return "[^"]+"' \
      "$ROOT/src/obs/flight_recorder.cpp" \
    | sed -E 's/.*return "([^"]+)"$/\1/' \
    | sort -u
)"
test -n "$stages" || { echo "no FlightStage names found" >&2; exit 1; }
while IFS= read -r stage; do
  [ -n "$stage" ] || continue
  if ! grep -qE "^\| \`pipeline\.${stage}_seconds_window\` \|" "$DOC"; then
    echo "undocumented metric: pipeline.${stage}_seconds_window — add it to the metrics table in docs/TELEMETRY.md" >&2
    missing=1
  fi
done <<< "$stages"

# Trace spans, checked in both directions: every literal ScopedSpan name in
# src/, plus every stage's `pipeline.<stage>`, is listed under "Trace spans"
# in TELEMETRY.md, and every name listed there is still emitted. A
# `<N>`/`<i>` suffix in the doc stands for a runtime suffix appended to a
# literal prefix in the code ("merge.level" + std::to_string(level) ↔
# `merge.level<N>`); both sides normalise it to `<>` before comparing.
code_spans="$(
  {
    grep -rlE 'ScopedSpan' "$ROOT/src" --include='*.cpp' --include='*.hpp' \
      | xargs perl -0777 -ne \
          'print $1, ($2 ? "<>" : ""), "\n"
             while /ScopedSpan\s+\w+\(\s*"([^"]+)"(\s*\+)?/g'
    sed 's/^/pipeline./' <<< "$stages"
  } | sort -u
)"
test -n "$code_spans" || { echo "no ScopedSpan names found in src/" >&2; exit 1; }
doc_spans="$(
  awk '/^## Trace spans/ { on = 1; next } /^## / { on = 0 }
       on && /^(- |  )/' "$DOC" \
    | grep -oE '`[a-z_]+(\.[a-z_0-9]+)+(<[A-Za-z]+>)?`' \
    | tr -d '`' \
    | sed -E 's/<[A-Za-z]+>$/<>/' \
    | sort -u
)"
while IFS= read -r span; do
  [ -n "$span" ] || continue
  echo "undocumented trace span: $span — add it to the \"Trace spans\" list in docs/TELEMETRY.md" >&2
  missing=1
done < <(comm -23 <(echo "$code_spans") <(echo "$doc_spans"))
while IFS= read -r span; do
  [ -n "$span" ] || continue
  echo "stale trace span: $span is listed in docs/TELEMETRY.md but no ScopedSpan in src/ emits it" >&2
  missing=1
done < <(comm -13 <(echo "$code_spans") <(echo "$doc_spans"))

if [ "$missing" -ne 0 ]; then
  exit 1
fi
echo "metrics doc lint OK ($(wc -l <<< "$names") registered names, $(wc -l <<< "$codes") flight codes, $(wc -l <<< "$stages") pipeline stages, $(wc -l <<< "$code_spans") trace spans documented)"
