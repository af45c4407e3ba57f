#!/usr/bin/env bash
# Steady-state gprof profile of one perfbench workload.
#
#   scripts/profile_steady.sh <workload>
#
# Builds snapbench from perfbench/ with -pg into its own build directory
# ($PROFILE_BUILD_DIR, default .profile_build/; perfbench/ is not touched),
# runs the workload twice — a 3 s run and a 20 s run, both with seed 1 —
# and prints, for the 40 costliest functions, the long run's call count
# and self time minus the short run's. Set-up work (table
# loads, replica creation) is the same in both runs and cancels out, so
# what remains is what the extra seconds of steady state cost. Each run is
# one snapbench process with the workload's own threads; nothing runs in
# parallel with it.
#
# gprof self times are sampled (10 ms ticks) and inflated by the
# instrumentation; call counts are exact. Quote counts, and time only as
# shares.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload>" >&2
  exit 2
fi
workload=$1
readonly short_s=3 long_s=20 seed=1 top=40

root=$(cd "$(dirname "$0")/.." && pwd)
build_root=$(mkdir -p "${PROFILE_BUILD_DIR:-$root/.profile_build}" &&
             cd "${PROFILE_BUILD_DIR:-$root/.profile_build}" && pwd)
build_dir=$build_root/snapbench-pg
binary=$build_dir/snapbench

if [[ ! -f $build_dir/CMakeCache.txt ]]; then
  cmake -S "$root/perfbench" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build_dir" --target snapbench -j 2 >&2

run() {  # run <seconds> <dir>: one profiled run; gmon.out lands in <dir>
  rm -rf "$2" && mkdir -p "$2"
  (cd "$2" && "$binary" --workload "$workload" --seed "$seed" \
     --seconds "$1" --trace 0 --out-dir "$2/out" > "$2/stdout.txt")
  tail -n 1 "$2/stdout.txt" | grep -q '"correct": true' || {
    echo "profile_steady: $workload run of $1 s was not correct" >&2
    exit 1
  }
  gprof -b -p "$binary" "$2/gmon.out" > "$2/flat.txt"
}

run "$short_s" "$build_root/short"
run "$long_s" "$build_root/long"

python3 - "$build_root/short/flat.txt" "$build_root/long/flat.txt" \
  "$build_root/short/stdout.txt" "$build_root/long/stdout.txt" \
  "$short_s" "$long_s" "$top" <<'EOF'
import re
import sys

short_flat, long_flat, short_out, long_out, short_s, long_s, top = sys.argv[1:]

ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(\d+)?\s*"
                 r"(?:[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def flat(path):
    """name -> (self seconds, calls) from a gprof flat profile."""
    out = {}
    for line in open(path):
        m = ROW.match(line)
        if not m:
            continue
        self_s, calls, name = float(m.group(3)), m.group(4), m.group(5)
        out[name] = (self_s, int(calls) if calls else 0)
    return out


def metric(path, name):
    for line in open(path):
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric" and parts[1] == name:
            return float(parts[2])
    return None


a, b = flat(short_flat), flat(long_flat)
rows = []
for name in set(a) | set(b):
    sa, ca = a.get(name, (0.0, 0))
    sb, cb = b.get(name, (0.0, 0))
    rows.append((sb - sa, cb - ca, name))
total = sum(r[0] for r in rows if r[0] > 0) or 1.0

print("steady state = %s s run minus %s s run" % (long_s, short_s))
for key in ("changes_per_s", "refresh_p50_ms", "setup_s"):
    print("  %-16s short %-12s long %s" % (key, metric(short_out, key),
                                            metric(long_out, key)))
print("%10s %7s %15s  %s" % ("self_s", "share", "calls", "function"))
for d_self, d_calls, name in sorted(rows, reverse=True)[:int(top)]:
    print("%10.2f %6.1f%% %15d  %s" % (d_self, 100.0 * d_self / total,
                                       d_calls, name))
print("-- call-count differences of the per-row lookup functions --")
for pattern in ("Schema::IndexOf", "Schema::HasColumn", "TupleView::Parse",
                "SlotWidth", "Schema::NameHash", "PickPageForInsert"):
    calls = sum(d for _, d, n in rows if pattern in n)
    print("%15d  %s" % (calls, pattern))
EOF
