#!/usr/bin/env bash
# Paired parent/change benchmark runs — the procedure every PR since 17
# ran by hand. From the repository root:
#
#   scripts/pair.sh [-n rounds] [-w workload]...
#
# Checks the parent commit out under .bench_build/pair/parent, builds one
# expelload binary per side the way benchmarks/run.sh does, and for each
# workload of BENCHMARK.json runs N rounds of one parent run and one change
# run, alternating which side goes first, both sides of a round on the same
# seed, each for BENCHMARK.json's run_seconds with tracing off. From the
# last JSON line of every run it prints, per end-to-end metric: q1 / median
# / q3 of each side, in how many of the N pairs the change read better, and
# a verdict against the metric's bound:
#
#   ok          the change's median is within the bound of the parent's
#   worse       it is not
#   unresolved  the parent's own quartile spread is wider than the bound, so
#               the runs cannot tell (unless every change run beats every
#               parent run, which is ok)
#
# and per workload the failed-operation share of each side. Every run is
# kept in .bench_build/pair/runs.jsonl. The script reads BENCHMARK.json and
# mirrors benchmarks/run.sh; it edits neither, and writes only under
# .bench_build/ (git-ignored).
#
# Defaults: 4 rounds, every workload. Rounds alternate between seeds 1 and
# 7. The parent is HEAD when the work tree has uncommitted changes to what
# the benchmark builds (Go files, go.mod, benchmarks/), else HEAD^; the
# script exits with an error when the work tree and the parent do not
# differ there, and prints the measured diffstat in its header line.
set -euo pipefail

rounds=4
workloads=()
seeds=(1 7)
while getopts "n:w:" opt; do
	case $opt in
	n) rounds=$OPTARG ;;
	w) workloads+=("$OPTARG") ;;
	*) sed -n '2,5p' "$0" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
workloads+=("$@")

root=$(git rev-parse --show-toplevel)
cd "$root"
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
measured=('*.go' go.mod benchmarks)
untracked=$(git ls-files --others --exclude-standard -- "${measured[@]}" | wc -l)
differs() { # rev: do the work tree's measured files, untracked ones included, differ from rev's?
	! git diff --quiet "$1" -- "${measured[@]}" || [ "$untracked" -gt 0 ]
}
if differs HEAD; then parent=HEAD; else parent=HEAD^; fi
parent=$(git rev-parse --verify "$parent^{commit}")
if ! differs "$parent"; then
	echo "pair: the work tree does not differ from $(git rev-parse --short "$parent") in ${measured[*]}: nothing to measure" >&2
	exit 1
fi
diffstat="$(git diff --shortstat "$parent" -- "${measured[@]}" | sed 's/^ *//'), $untracked untracked"

# Same build environment as benchmarks/run.sh, so both share its cache.
out="$root/.bench_build"
pair="$out/pair"
rm -rf "$pair"
mkdir -p "$pair/parent" "$pair/stores" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

git archive "$parent" | tar -x -C "$pair/parent"
go build -C "$pair/parent/benchmarks" -o "$pair/expelload.parent" ./expelload
go build -C "$root/benchmarks" -o "$pair/expelload.change" ./expelload
echo "pair: parent $(git rev-parse --short "$parent") vs work tree ($diffstat), $rounds rounds x ${#workloads[@]} workloads x ${seconds}s, seeds ${seeds[*]}" >&2

run() { # side workload round seed
	"$pair/expelload.$1" -store-root "$pair/stores" --workload "$2" --seed "$4" --seconds "$seconds" --trace 0 2>>"$pair/runs.log" |
		tail -n 1 | jq -c --arg side "$1" --arg w "$2" --argjson r "$3" --argjson seed "$4" \
		'{side: $side, workload: $w, round: $r, seed: $seed} + .' >>"$pair/runs.jsonl"
}
for w in "${workloads[@]}"; do
	for ((r = 0; r < rounds; r++)); do
		seed=${seeds[r % ${#seeds[@]}]}
		# Flip the order every round, and once more per pass over the
		# seeds, so each seed sees both orders.
		if (((r + r / ${#seeds[@]}) % 2 == 0)); then order=(parent change); else order=(change parent); fi
		for side in "${order[@]}"; do run "$side" "$w" "$r" "$seed"; done
		echo "pair: $w round $((r + 1))/$rounds (seed $seed, ${order[0]} first)" >&2
	done
done

# Quartiles by linear interpolation; "better" and "worse by more than the
# bound" follow each metric's direction in BENCHMARK.json.
jq -r -s --slurpfile bench BENCHMARK.json '
def q(p): sort as $s | ((($s | length) - 1) * p) as $i | ($i | floor) as $lo
	| $s[$lo] + ($i - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
def fmt: if . == 0 then "0" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring)
	else (. * 10000 | round / 10000 | tostring) end;
. as $runs | $bench[0] as $b
| ["workload", "metric", "parent q1/med/q3", "change q1/med/q3", "delta", "better", "bound", "verdict"],
["---", "---", "---", "---", "---", "---", "---", "---"],
(($runs | map(.workload) | unique)[] as $w
	| ($runs | map(select(.workload == $w))) as $wr
	| ($b.end_to_end[] as $m
		| ($m.better == "lower") as $low
		| ($wr | map(select(.side == "parent")) | sort_by(.round) | map(.metrics[$m.name].value)) as $p
		| ($wr | map(select(.side == "change")) | sort_by(.round) | map(.metrics[$m.name].value)) as $c
		| ($p | q(0.5)) as $pm | ($c | q(0.5)) as $cm
		| (if $pm == 0 then 0 else ($cm - $pm) / $pm end) as $d
		| (if $low then $d else -$d end) as $worse
		| ([range(0; $p | length)] | map(select(if $low then $c[.] < $p[.] else $c[.] > $p[.] end)) | length) as $k
		| (if $pm == 0 then 0 else (($p | q(0.75)) - ($p | q(0.25))) / $pm | fabs end) as $spread
		| (if $low then ($c | max) < ($p | min) else ($c | min) > ($p | max) end) as $clean
		| [$w, $m.name,
			"\($p | q(0.25) | fmt) / \($pm | fmt) / \($p | q(0.75) | fmt)",
			"\($c | q(0.25) | fmt) / \($cm | fmt) / \($c | q(0.75) | fmt)",
			"\($d * 1000 | round / 10)%", "\($k)/\($p | length)", "\($m.bound * 100)%",
			(if $clean then "ok" elif $spread > $m.bound then "unresolved" elif $worse > $m.bound then "worse" else "ok" end)]),
	(["parent", "change"] | map(. as $s | $wr | map(select(.side == $s))
		| {f: (map(.failed) | add), a: (map(.attempted) | add)}) as $f
		| [$w, "failed/attempted", "\($f[0].f)/\($f[0].a)", "\($f[1].f)/\($f[1].a)", "", "", "",
			(if ($wr | map(select(.correct | not)) | length) > 0 then "incorrect output"
			elif $f[1].f * $f[0].a > $f[0].f * $f[1].a then "worse" else "ok" end)]))
| join(" | ") | "| " + . + " |"' "$pair/runs.jsonl"
