#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload solve-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

work="$PWD/.bench_build/perfbench"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -buildvcs=false -o "$work/perfbench" .)
# The commit stamp looks for a repository here and nowhere above, and
# reads no git configuration outside it.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null 	git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$work/perfbench" -work "$work" -commit "$commit" "$@"
