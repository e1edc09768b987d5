#!/usr/bin/env bash
# benchdiff.sh — benchmark regression gate.
#
# Two gated suites:
#
#   engine       internal/sim BenchmarkEngine{,16Core}{Baseline,SN4LDisBTB}
#                (the 200K+200K windows under the no-prefetch baseline and
#                the paper's headline design, at 4 cores and at the paper's
#                full 16-core scale where the engine's per-cycle cost
#                dominates; the 16-core runs shard across idle CPUs, and
#                BenchmarkEngine16CoreSN4LDisBTBSerial is the one-goroutine
#                twin) and BenchmarkRunFixedCost (a 64+64-cycle run:
#                what every run costs around its simulated cycles, which is
#                most of a short sweep cell: machine assembly, the LLC's
#                preload and the reset and drain audit of the sets the run
#                touched; ~0.2 ms since the preload stopped copying an 8 MB
#                image into every run, ~1.1 ms before), and internal/cfg
#                BenchmarkGenerate{OLTPDBAFixed,WebZeusVariable} +
#                BenchmarkWalkerNext (building the largest preset, the
#                variable-length path, and one committed step), compared
#                against BENCH_engine.json.
#   resultstore  internal/resultstore BenchmarkScanIndex / BenchmarkScanFile
#                at 320 and 10K cells (one /v1/query over the in-memory
#                index; the same question asked of the file), compared
#                against BENCH_resultstore.json.
#
# Each suite takes the minimum ns/op over -count repetitions (the minimum is
# the least noisy wall-clock estimator on shared CI runners) and compares
# each benchmark against its committed reference. A benchmark more than
# BENCH_THRESHOLD_PCT percent slower than its reference fails the script, and
# so does a BenchmarkScan* that allocates more than 10 percent over its
# reference allocs/op — the half of the gate that does not depend on the
# machine: a scan that went back to one map per cell fails it anywhere. The
# internal/cfg benchmarks are gated on that half only, allocs/op and B/op
# (both repeat run to run: a program that went back to a slice per block
# fails anywhere); their ns/op is printed and never fails the script.
#
# Usage:
#   scripts/benchdiff.sh            # compare against the committed references
#   scripts/benchdiff.sh -update    # re-measure and rewrite the references
#
# Environment:
#   BENCH_THRESHOLD_PCT   allowed ns/op regression in percent (default 25).
#                         CI machines differ from the reference machine, so
#                         the gate is deliberately loose: it catches
#                         algorithmic regressions (a lost fast path, a
#                         reintroduced per-tick allocation), not noise.
#   BENCH_COUNT           benchmark repetitions (default 3)
#   BENCH_TIME            go test -benchtime value (default 3x)
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD=${BENCH_THRESHOLD_PCT:-25}
# Allowed allocs/op and B/op growth of the entries gated on them, in percent:
# allocation counts repeat run to run, but map and slice growth differ a
# little between Go releases.
ALLOC_THRESHOLD=10
COUNT=${BENCH_COUNT:-3}
BENCHTIME=${BENCH_TIME:-3x}
MODE=${1:-check}

fail=0

# run_suite <label> <packages> <bench-regexes> <ref-file> <bench names...>
# Runs one benchmark suite (one go test per space-separated regex, over the
# space-separated packages; a regex ending in @N runs at -benchtime N instead
# of BENCH_TIME) and either rewrites its reference (-update) or compares each
# named benchmark's min ns/op against it.
run_suite() {
	local label="$1" pkg="$2" regexes="$3" ref="$4"
	shift 4
	local benches="$*"

	local out="" regex benchtime part
	for regex in $regexes; do
		benchtime="$BENCHTIME"
		case "$regex" in *@*) benchtime="${regex##*@}" ;; esac
		# shellcheck disable=SC2086 # $pkg is a list
		part=$(go test $pkg -run '^$' -bench "${regex%@*}" \
			-benchtime "$benchtime" -count "$COUNT" 2>&1) || {
			echo "$part"
			echo "benchdiff: $label benchmark run failed" >&2
			exit 1
		}
		echo "$part"
		out+="$part"$'\n'
	done

	# Minimum ns/op and allocs/op per benchmark, from lines like:
	#   BenchmarkEngineBaseline   3   142028384 ns/op   19336872 B/op   32945 allocs/op
	# The value is the field before its unit label, so extra columns a
	# benchmark reports (MB/s throughput) cannot shift the parse.
	min_unit() {
		echo "$out" | awk -v name="$1" -v unit="$2" '
			$1 ~ "^"name"(-[0-9]+)?$" {
				for (i = 2; i <= NF; i++)
					if ($i == unit && (min == "" || $(i-1) + 0 < min + 0)) min = $(i-1)
			}
			END { print min }'
	}
	# Whole nanoseconds: a benchmark of tens of ns an op prints a fraction.
	min_ns() { local v; v=$(min_unit "$1" "ns/op"); echo "${v%.*}"; }
	min_allocs() { min_unit "$1" "allocs/op"; }
	min_bytes() { min_unit "$1" "B/op"; }

	if [ "$MODE" = "-update" ]; then
		{
			echo '{'
			echo '  "note": "'"$label"' benchmark reference: min ns/op over '"$COUNT"'x -benchtime '"$BENCHTIME"' runs; update with scripts/benchdiff.sh -update",'
			echo '  "benchmarks": {'
			local sep='' b ns al by
			for b in $benches; do
				ns=$(min_ns "$b")
				al=$(min_allocs "$b")
				by=$(min_bytes "$b")
				[ -n "$ns" ] || { echo "benchdiff: no result for $b" >&2; exit 1; }
				printf '%s    "%s": {"ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s}' "$sep" "$b" "$ns" "$by" "$al"
				sep=$',\n'
			done
			printf '\n  }\n}\n'
		} >"$ref"
		echo "benchdiff: wrote $ref"
		return 0
	fi

	[ -f "$ref" ] || { echo "benchdiff: $ref missing (run scripts/benchdiff.sh -update)" >&2; exit 1; }

	# gate_count <bench> <unit> <json-key>: fails when the benchmark's minimum
	# of the unit exceeds its reference by more than ALLOC_THRESHOLD percent.
	gate_count() {
		local b="$1" unit="$2" key="$3" got refc limit
		got=$(min_unit "$b" "$unit")
		refc=$(sed -n 's/.*"'"$b"'": {.*"'"$key"'": \([0-9]*\)[,}].*/\1/p' "$ref")
		[ -n "$got" ] && [ -n "$refc" ] || { echo "benchdiff: no $unit for $b" >&2; exit 1; }
		limit=$((refc + refc * ALLOC_THRESHOLD / 100))
		if [ "$got" -gt "$limit" ]; then
			echo "benchdiff: FAIL $b: $got $unit vs reference $refc (limit +${ALLOC_THRESHOLD}%)"
			fail=1
		else
			echo "benchdiff: ok   $b: $got $unit vs reference $refc (limit +${ALLOC_THRESHOLD}%)"
		fi
	}

	local b ns refv limit pct
	for b in $benches; do
		ns=$(min_ns "$b")
		[ -n "$ns" ] || { echo "benchdiff: no result for $b" >&2; exit 1; }
		refv=$(sed -n 's/.*"'"$b"'": {"ns_per_op": \([0-9]*\),.*/\1/p' "$ref")
		[ -n "$refv" ] || { echo "benchdiff: $b missing from $ref" >&2; exit 1; }
		limit=$((refv + refv * THRESHOLD / 100))
		pct=$(( (ns - refv) * 100 / refv ))
		case "$b" in
		BenchmarkGenerate*|BenchmarkWalkerNext)
			echo "benchdiff: note $b: $ns ns/op vs reference $refv (${pct}%, advisory)"
			gate_count "$b" "allocs/op" allocs_per_op
			gate_count "$b" "B/op" bytes_per_op
			continue ;;
		esac
		if [ "$ns" -gt "$limit" ]; then
			echo "benchdiff: FAIL $b: $ns ns/op is ${pct}% over reference $refv (limit +${THRESHOLD}%)"
			fail=1
		else
			echo "benchdiff: ok   $b: $ns ns/op vs reference $refv (${pct}%, limit +${THRESHOLD}%)"
		fi
		case "$b" in BenchmarkScan*) gate_count "$b" "allocs/op" allocs_per_op ;; esac
	done
}

# BenchmarkRunFixedCost is a fifth of a millisecond an op: 3 iterations would
# measure noise, so it always runs 200; a walker step is tens of nanoseconds.
run_suite engine './internal/sim/ ./internal/cfg/' \
	'BenchmarkEngine ^BenchmarkRunFixedCost$@200x ^BenchmarkGenerate ^BenchmarkWalkerNext$@5000000x' \
	BENCH_engine.json \
	BenchmarkEngineBaseline BenchmarkEngineSN4LDisBTB \
	BenchmarkEngine16CoreBaseline BenchmarkEngine16CoreSN4LDisBTB \
	BenchmarkEngine16CoreSN4LDisBTBSerial BenchmarkRunFixedCost \
	BenchmarkGenerateOLTPDBAFixed BenchmarkGenerateWebZeusVariable BenchmarkWalkerNext

# The scans run from 10 microseconds an op (the index, 320 cells) to 10
# milliseconds (the file, 10K cells): iteration counts that give each run
# tens of milliseconds to measure.
run_suite resultstore ./internal/resultstore/ \
	'^BenchmarkScanIndex(320|10K)$@5000x ^BenchmarkScanFile(320|10K)$@100x' \
	BENCH_resultstore.json \
	BenchmarkScanIndex320 BenchmarkScanIndex10K BenchmarkScanFile320 BenchmarkScanFile10K

exit $fail
