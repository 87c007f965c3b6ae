#!/usr/bin/env bash
# Deployed-code coverage gate: which of the module's code does any
# deployment actually run?
#
# It builds every program under cmd/ and examples/ and the benchmark
# harness with coverage on for every package of the module, drives them
# the way they are deployed (both servers under every eactors-load verb,
# xmppclient, a slow consumer that makes the kernel refuse the XMPP
# server's bytes, posctl, eactors top|trace, eactors-bench -all, -plot and
# one table-format figure, sendcheck, every example, the five harness
# workloads with tracing off and on) plus the chaos suite, and merges
# the counters with go tool covdata. It prints each package's share of
# executed non-test statements and every function no run enters, then
# judges functions:
#
#   a non-test function outside benchmark/ and internal/testutil/ that
#   no run enters fails the gate, unless scripts/deployed-exceptions.txt
#   lists it with a tagged reason;
#   an exceptions entry whose function a run enters, or that no longer
#   exists, fails the gate too, as does an entry without a tag;
#   a package that no driven program links fails the gate.
#
# A function is keyed by its file and its name, with the receiver type
# for a method (internal/faults/faults.go Injector.String), so an edit
# elsewhere in its file leaves its entry valid.
#
# Everything it writes stays under .deployed/: report.txt (the report
# printed here), deployed.out (the merged profile; go tool cover -html
# renders it), funcs.txt (every function with its coverage) and
# drive.log (what the driven programs printed).
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

# slow_consumer opens an XMPP session on the running xmppserver that
# sends itself about 16 MiB of 1.4 KiB chat stanzas and never reads:
# once the kernel's socket buffers are full it refuses the server's
# bytes, so frames take the write pump, its write deadline expires and
# a full backlog drops frames. The stream header, the auth and the first
# 64 KiB of stanzas go out in one write, as a pipelining client sends
# them, so stanzas reach the CONNECTOR after it handed the session to
# its shard and take the stray-bytes handoff.
slow_consumer() {
	echo "deployed: slow consumer on $addr" >&2
	local stanza burst i
	stanza="<message from=\"slow\" to=\"slow\" type=\"chat\"><body>$(printf '%1400s' '' | tr ' ' x)</body></message>"
	burst='<stream:stream from="slow" to="eactors.local" version="1.0" xmlns="jabber:client" xmlns:stream="http://etherx.jabber.org/streams">'
	burst+="<auth user=\"slow\" key=\"$(printf '%064d' 0)\"/>"
	for ((i = 0; i < 45; i++)); do
		burst+=$stanza
	done
	exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
	{
		printf '%s' "$burst"
		for ((i = 45; i < 11500; i++)); do
			printf '%s' "$stanza"
		done
	} >&3 || fail "slow consumer"
	sleep 1.5 # past the write pump's 1 s write deadline
	exec 3>&-
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
slow_consumer
step "$bin/eactors" top -addr "$metrics" -once
step "$bin/eactors" trace -addr "$metrics" -n 3
stop_servers

# The in-memory online list in place of the sealed POS directory.
serve xmppserver -directory=false
step "$bin/eactors-load" xmpp -server "$addr" -clients 4 -warmup 200ms -duration 1s
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
step "$bin/eactors-bench" -fig 1 -scale 0.002

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
	# Every function, keyed by file and [Receiver.]Name, with its coverage.
	go tool cover -func="$out/deployed.out" | sed "s|^$module/||" |
		awk '$1 != "total:" && $1 !~ /^internal\/testutil\// {
			split($1, loc, ":"); file = loc[1]
			n = 0; src = ""
			while ((getline l < file) > 0) if (++n == loc[2]) { src = l; break }
			close(file)
			recv = ""
			if (match(src, /^func \([^)]*\)/)) {
				recv = substr(src, 7, RLENGTH - 7)
				sub(/\[.*/, "", recv); sub(/.*[ *]/, "", recv)
				recv = recv "."
			}
			print file, recv $2, $3
		}' >"$out/funcs.txt"
	awk '$3 == "0.0%" { print $1, $2 }' "$out/funcs.txt" >"$out/unreached.txt"
	echo "== functions no run enters: $(wc -l <"$out/unreached.txt")"
	cat "$out/unreached.txt"

	# The gate.
	echo
	echo "== the gate"
	go list -f '{{.ImportPath}} {{len .GoFiles}}' ./... |
		awk -v mod="$module" -v linked="$(tr '\n' ' ' <<<"$linked")" \
			-v funcs="$out/funcs.txt" -v exc="$exceptions" '
		BEGIN {
			n = split(linked, l, " ")
			for (i = 1; i <= n; i++) islinked[l[i]] = 1
			while ((getline line < funcs) > 0) {
				split(line, c, " "); key = c[1] " " c[2]
				exists[key] = 1
				if (c[3] == "0.0%") unentered[++nu] = key
			}
			while ((getline line < exc) > 0) {
				if (line ~ /^[ \t]*(#|$)/) continue
				split(line, c, /[ \t]+/); key = c[1] " " c[2]
				reason = line; sub(/^[^ \t]+[ \t]+[^ \t]+[ \t]*/, "", reason)
				if (reason !~ /^(error path|test seam|chaos-only fault class): ./) {
					printf "BAD REASON %s: %s (want \"error path: ...\", \"test seam: ...\" or \"chaos-only fault class: ...\")\n", key, reason
					bad++
				}
				if (!(key in excused)) listed[++ne] = key
				excused[key] = reason
			}
		}
		$2 > 0 && !($1 in islinked) && $1 !~ "^" mod "/internal/testutil(/|$)" {
			printf "FAIL      %s: its package is linked into no driven program\n", substr($1, length(mod) + 2)
			bad++
		}
		END {
			for (i = 1; i <= nu; i++) {
				k = unentered[i]
				if (k in excused) { printf "excepted  %s: %s\n", k, excused[k]; idle[k] = 1 }
				else { printf "FAIL      %s: no run enters it\n", k; bad++ }
			}
			for (i = 1; i <= ne; i++) {
				k = listed[i]
				if (k in idle) continue
				printf "STALE     %s is listed in %s but %s\n", k, exc, (k in exists ? "a run enters it" : "no longer exists")
				bad++
			}
			printf "== %d failures\n", bad
			exit (bad > 0 ? 1 : 0)
		}'
} | tee "$out/report.txt"
