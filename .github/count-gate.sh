#!/usr/bin/env bash
# Count gate: runs the end-to-end benchmark's four workloads on the
# merge-base and on HEAD, one after the other on this machine, and
# compares the two metrics that repeat run to run — wire_bytes_per_image
# and allocs_per_image — so the machine's speed and kernel tier cancel.
#
# It fails when
#   - wire_bytes_per_image differs (by more than 16 B/image on
#     r18-codec-wifi, whose mean is over a varying image count; by any
#     amount elsewhere),
#   - allocs_per_image rises by more than 0.5 %,
#   - any image fails, or a run gives no result.
# Decreases pass. A change that means to raise a count says so in
# CHANGES.md.
#
# Usage: bash .github/count-gate.sh [base-ref]   (default origin/main)
# Needs git history back to the merge-base, Go and python3. Each side
# takes about three minutes: bench measures at least 200 images however
# short -seconds is.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

base=$(git merge-base "${1:-origin/main}" HEAD)
head=$(git rev-parse HEAD)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
workloads=(r18-f32-seq r18-int8-seq vggsim-f32-pipe4 r18-codec-wifi)

for side in base head; do
	rev=${!side}
	echo "== $side $rev" >&2
	mkdir -p "$work/$side/src"
	git archive "$rev" | tar -x -C "$work/$side/src"
	for w in "${workloads[@]}"; do
		echo "   $w" >&2
		# The last line of a run's standard output is its JSON result.
		(cd "$work/$side/src" && go run ./bench -workload "$w" -seed 1 -seconds 3 -trace 0) \
			>"$work/$side/$w.out" 2>"$work/$side/$w.log" || true
		tail -n 1 "$work/$side/$w.out" >"$work/$side/$w.json"
	done
done

python3 - "$work" "${workloads[@]}" <<'EOF'
import json, os, sys

work, workloads = sys.argv[1], sys.argv[2:]

def load(side, w):
    try:
        with open(os.path.join(work, side, w + ".json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None

bad = []
print(f"{'workload':<18} {'metric':<22} {'parent':>14} {'change':>14} {'delta':>12}")
for w in workloads:
    runs = {"parent": load("base", w), "change": load("head", w)}
    for name, r in runs.items():
        side = "base" if name == "parent" else "head"
        if r is None:
            with open(os.path.join(work, side, w + ".log")) as f:
                tail = "".join(f.readlines()[-20:])
            bad.append(f"{w}: the {name} run gave no result; its log ends:\n{tail}")
        elif not r["correct"] or r["failed"] > 0:
            bad.append(f"{w}: the {name} run failed {r['failed']} of {r['attempted']} images (correct={r['correct']})")
    p, c = runs["parent"], runs["change"]
    if p is None or c is None:
        continue
    for m in ("wire_bytes_per_image", "allocs_per_image"):
        pv, cv = p["metrics"][m]["value"], c["metrics"][m]["value"]
        d = cv - pv
        print(f"{w:<18} {m:<22} {pv:>14.2f} {cv:>14.2f} {d:>+12.2f}")
        if m == "wire_bytes_per_image":
            tol = 16 if w == "r18-codec-wifi" else 0
            if abs(d) > tol:
                bad.append(f"{w}: {m} moved by {d:+.2f} B (allowed {tol})")
        elif d > 0.005 * pv:
            bad.append(f"{w}: {m} rose by {d:+.2f} ({100 * d / pv:+.2f} %, allowed +0.5 %)")

if bad:
    print("\ncount gate FAILED:")
    for b in bad:
        print("  " + b)
    sys.exit(1)
print("\ncount gate passed")
EOF
