#!/usr/bin/env bash
# Deployed-code coverage gate: which of the module's code does any
# deployment actually run?
#
# It builds every program under cmd/ and examples/ and the benchmark
# harness with coverage on for every package of the module, drives them
# the way they are deployed (both servers under every eactors-load verb,
# xmppclient, posctl, eactors top|trace, eactors-bench -all and -plot,
# sendcheck, every example, the five harness workloads with tracing off
# and on) plus the chaos suite, and merges the counters with
# go tool covdata. It prints each package's share of executed non-test
# statements and every function no run enters, then judges files:
#
#   a compiled non-test file outside benchmark/ and internal/testutil/
#   that executes no statement fails the gate, unless
#   scripts/deployed-exceptions.txt lists it with a reason.
#
# A file holding only declarations has no statement to execute and is
# not judged. A file whose package no driven program links counts as
# executing nothing.
#
# Everything it writes stays under .deployed/: report.txt (the report
# printed here), deployed.out (the merged profile; go tool cover -html
# renders it) and drive.log (what the driven programs printed).
#
#   bash scripts/deployed.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=.deployed
bin=$out/bin run=$out/run cov=$PWD/$out/cov log=$out/drive.log
rm -rf "$out"
mkdir -p "$bin" "$run" "$cov"
: >"$log"
module=$(go list -m)
exceptions=scripts/deployed-exceptions.txt

pids=()
stop_servers() {
	for pid in "${pids[@]}"; do
		kill -INT "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	done
	pids=()
}
trap stop_servers EXIT

fail() {
	echo "deployed: FAILED: $*" >&2
	tail -n 20 "$log" >&2
	exit 1
}

# step runs one driven program, its output appended to the drive log.
step() {
	echo "deployed: ${*#"$bin/"}" >&2
	"$@" >>"$log" 2>&1 || fail "$*"
}

# serve starts a server with every observability sink armed and waits
# for it to print its listening and metrics addresses into addr and
# metrics.
serve() {
	local name=$1 srvlog=$run/$1.log
	shift
	echo "deployed: $name $*" >&2
	"$bin/$name" -listen 127.0.0.1:0 -metrics 127.0.0.1:0 -trace -profile -stats 1s "$@" >"$srvlog" 2>&1 &
	pids+=($!)
	for _ in $(seq 100); do
		addr=$(sed -n "s/^$name: listening on \([^ ]*\).*/\1/p" "$srvlog")
		metrics=$(sed -n "s|^$name: metrics on http://\([^/]*\)/metrics.*|\1|p" "$srvlog")
		[[ -n $addr && -n $metrics ]] && return
		sleep 0.1
	done
	cat "$srvlog" >&2
	fail "$name did not start"
}

echo "deployed: building with coverage of $module/..." >&2
go build -cover -coverpkg="$module/..." -o "$bin/" ./cmd/... ./examples/...
go -C benchmark build -cover -coverpkg="$module/..." -o "$PWD/$bin/benchmark" .
# The chaos test binary instruments only what it links, so it adds no
# package to the profile that a deployment would not.
chaos_pkgs=$(go list -deps -test ./internal/chaos | sed -n "s|^\($module/[^ ]*\).*|\1|p" | grep -v '\.test$' | sort -u)
linked=$({
	go list -deps ./cmd/... ./examples/...
	go -C benchmark list -deps .
	echo "$chaos_pkgs"
} | grep "^$module/" | sort -u)
export GOCOVERDIR=$cov

serve kvserver -shards 2 -encrypt -dir "$run/kv" -flush 20ms
step "$bin/eactors-load" kv -server "$addr" -clients 4 -warmup 200ms -duration 1s
step "$bin/eactors-load" kv -server "$addr" -clients 4 -warmup 200ms -duration 1s -depth 16 -json
step "$bin/eactors" top -addr "$metrics" -once -o "$run/top.jsonl"
step "$bin/eactors" trace -addr "$metrics" -n 3

serve xmppserver -shards 2 -enclaves 2 -rooms vault
step "$bin/eactors-load" xmpp -server "$addr" -clients 4 -warmup 200ms -duration 1s
step "$bin/eactors-load" xmpp -server "$addr" -clients 4 -warmup 200ms -duration 1s -group vault -json
printf '%s\n' '/msg alice hello' '/join vault' '/room vault hello' '/ping' '/who alice' \
	'/leave vault' '/quit' >"$run/xmppclient.in"
step "$bin/xmppclient" -server "$addr" -user alice <"$run/xmppclient.in"
step "$bin/eactors" top -addr "$metrics" -once
step "$bin/eactors" trace -addr "$metrics" -n 3
stop_servers

step "$bin/eactors-load" idle -kvserver "$bin/kvserver" -xmppserver "$bin/xmppserver" -conns 100 -settle 500ms

for args in "set k v1" "set k v2" "get k" "list" "del k" "stats" "clean"; do
	# shellcheck disable=SC2086 # args is a word list on purpose
	step "$bin/posctl" -store "$run/posctl.pos" $args
done
step "$bin/sendcheck" ./...
for ex in examples/*/; do
	step "$bin/$(basename "$ex")"
done

echo "deployed: eactors-bench -all -scale 0.002 -format csv -plot" >&2
"$bin/eactors-bench" -all -scale 0.002 -format csv -plot "$run/plots" >"$run/all.csv" 2>>"$log" ||
	fail "eactors-bench -all"
step "$bin/eactors-bench" -plot "$run/replot" <"$run/all.csv"

for trace in 0 1; do
	step "$bin/benchmark" -seconds 1 -trace "$trace" -scratch "$run/bench"
done

echo "deployed: go test ./internal/chaos" >&2
go test -count=1 -cover -coverpkg="$(paste -sd, <<<"$chaos_pkgs")" ./internal/chaos \
	-args -test.gocoverdir="$cov" >>"$log" 2>&1 || fail "chaos suite"
unset GOCOVERDIR

# Merge. The harness's own package lives in its nested module, which
# go tool cover cannot resolve from here; it is outside the gate anyway.
go tool covdata textfmt -i="$cov" -o "$out/all.out"
grep -v "^$module/benchmark/" "$out/all.out" >"$out/deployed.out"

# Per file: statements and executed statements (a block listed by two
# programs counts once, executed if either ran it).
awk -v mod="$module/" 'NR > 1 {
	split($1, loc, ":")
	file = substr(loc[1], length(mod) + 1)
	stmts[$1] = $2; fileof[$1] = file
	if ($3 > 0) hit[$1] = 1
}
END {
	for (b in stmts) {
		total[fileof[b]] += stmts[b]
		if (b in hit) ran[fileof[b]] += stmts[b]
	}
	for (f in total) print f, total[f], ran[f] + 0
}' "$out/deployed.out" | sort >"$out/files.txt"

{
	echo "== share of executed non-test statements, per package"
	awk '{
		pkg = $1; sub(/\/[^\/]*$/, "", pkg)
		total[pkg] += $2; ran[pkg] += $3
	}
	END { for (p in total) printf "%-28s %5.1f%%  %5d of %5d\n", p, 100 * ran[p] / total[p], ran[p], total[p] }' \
		"$out/files.txt" | sort

	echo
	go tool cover -func="$out/deployed.out" | sed "s|^$module/||" |
		awk '$NF == "0.0%" && $1 !~ /^internal\/testutil\// { print $1, $2 }' >"$out/unreached.txt"
	echo "== functions no run enters: $(wc -l <"$out/unreached.txt")"
	cat "$out/unreached.txt"

	# The gate. Every compiled non-test file of every package.
	echo
	echo "== files that execute no statement"
	go list -f '{{.ImportPath}}{{range .GoFiles}} {{.}}{{end}}' ./... |
		awk -v mod="$module" -v linked="$(tr '\n' ' ' <<<"$linked")" \
			-v files="$out/files.txt" -v exc="$exceptions" '
		BEGIN {
			n = split(linked, l, " ")
			for (i = 1; i <= n; i++) islinked[l[i]] = 1
			while ((getline line < files) > 0) { split(line, c, " "); total[c[1]] = c[2]; ran[c[1]] = c[3] }
			while ((getline line < exc) > 0) {
				if (line ~ /^[ \t]*(#|$)/) continue
				path = line; sub(/[ \t].*/, "", path)
				reason = line; sub(/^[^ \t]+[ \t]+/, "", reason)
				if (reason !~ /^(error path|test seam|chaos-only fault class): ./) {
					printf "BAD REASON %s: %s (want \"error path: ...\", \"test seam: ...\" or \"chaos-only fault class: ...\")\n", path, reason
					bad++
				}
				excused[path] = reason
			}
		}
		{
			pkg = $1; dir = substr(pkg, length(mod) + 2)
			if (dir ~ /^internal\/testutil(\/|$)/) next
			for (i = 2; i <= NF; i++) {
				file = (dir == "" ? "" : dir "/") $i
				if (!(pkg in islinked)) why = "its package is linked into no driven program"
				else if (total[file] > 0 && ran[file] == 0) why = total[file] " statements, none executed"
				else continue
				if (file in excused) { printf "excepted  %s (%s): %s\n", file, why, excused[file]; used[file] = 1 }
				else { printf "FAIL      %s (%s)\n", file, why; bad++ }
			}
		}
		END {
			for (f in excused) if (!(f in used)) printf "note      %s is listed in %s but executes statements\n", f, exc
			printf "== %d files fail the gate\n", bad
			exit (bad > 0 ? 1 : 0)
		}'
} | tee "$out/report.txt"
