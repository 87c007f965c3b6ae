#!/usr/bin/env bash
# Connection-scale smoke: build the real server binaries, then let
# eactors-load idle park CONNS idle connections on each and assert the
# idle-connection cost contract: at most one goroutine per idle
# connection (its parked read pump) plus a fixed allowance, and a hard
# RSS ceiling per idle connection. It also prints the p99 of a small
# live workload running next to the idle connections (not gated).
#
#   CONNS=10000 ./scripts/connscale.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CONNS="${CONNS:-10000}"

ulimit -n "$(ulimit -Hn)" || true
echo "connscale.sh: fd limit soft=$(ulimit -Sn) hard=$(ulimit -Hn)"

mkdir -p bin
go build -o bin/ ./cmd/kvserver ./cmd/xmppserver ./cmd/eactors-load

exec ./bin/eactors-load idle -kvserver bin/kvserver -xmppserver bin/xmppserver -conns "$CONNS"
