#!/usr/bin/env bash
# run.sh applies each seeded bug in this directory to a scratch copy of
# the committed tree and records which oracle catches it:
#
#   vet        go vet ./...
#   tests      go test ./... (TestSelfLint skipped: it is diverselint;
#              TestMutationCorpusApplies skipped: an applied seed no
#              longer matches its own pre-image, so it fails every row)
#   race       go test -race ./..., DATA RACE reports only
#   allocgates go test -run AllocFree -count=1 ./internal/... (make allocgates)
#   diverselint diverselint -tests ./..., built from the unseeded tree
#
# Every test binary runs under -timeout 45s, so a seed that deadlocks
# or spins shows as "hang" in the tests or race column. The output is
# one tab-separated row per seed; DESIGN.md §10 holds the last run.
#
# Usage, from anywhere in the repository:
#
#	bash internal/analysis/testdata/mutations/run.sh [seed.patch ...]
set -u
here=$(cd "$(dirname "$0")" && pwd)
repo=$(git -C "$here" rev-parse --show-toplevel)
patches=()
for p in "$@"; do
	patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done
if [ ${#patches[@]} -eq 0 ]; then patches=("$here"/*.patch); fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git -C "$repo" archive HEAD | tar -x -C "$work"
cd "$work" || exit 2
git init -q && git add -A && git -c user.name=corpus -c user.email=corpus@localhost commit -qm base
mkdir -p .corpus
go build -o .corpus/diverselint ./cmd/diverselint || exit 2

# verdict <log> <exit>: "-" when the run passed, else the failing
# tests, or the tests still running when the -timeout panic fired.
verdict() {
	if [ "$2" -eq 0 ]; then echo "-"; return; fi
	local tests
	if grep -q 'panic: test timed out' "$1"; then
		tests=$(sed -n '/running tests:/,/^$/p' "$1" | grep -oE 'Test[A-Za-z0-9_]+' | sort -u | tr '\n' ' ')
		echo "hang: ${tests% }"
	elif grep -qE '\[build failed\]' "$1"; then
		echo "build failed"
	else
		tests=$(grep -oE '^--- FAIL: [A-Za-z0-9_/]+' "$1" | sed 's/^--- FAIL: //' | sort -u | tr '\n' ' ')
		echo "fail: ${tests% }"
	fi
}

oracles() {
	local vet tests race gates lint
	go vet ./... >.corpus/vet.log 2>&1 && vet="-" || vet="caught"
	go test -p 2 -timeout 45s -skip '^(TestSelfLint|TestMutationCorpusApplies)$' ./... >.corpus/test.log 2>&1
	tests=$(verdict .corpus/test.log $?)
	go test -race -p 2 -timeout 45s -skip '^(TestSelfLint|TestMutationCorpusApplies)$' ./... >.corpus/race.log 2>&1
	if grep -q 'WARNING: DATA RACE' .corpus/race.log; then race="caught"
	else race="-"; fi
	go test -run AllocFree -count=1 -timeout 45s ./internal/... >.corpus/gates.log 2>&1 && gates="-" || gates="caught"
	./.corpus/diverselint -tests ./... >.corpus/lint.log 2>/dev/null
	lint=$(grep -oE '\(([a-z]+)\)$' .corpus/lint.log | tr -d '()' | sort -u | tr '\n' ',')
	lint=${lint%,}
	printf '%s\t%s\t%s\t%s\t%s\n' "$vet" "$tests" "$race" "$gates" "${lint:--}"
}

printf 'seed\tvet\ttests\trace\tallocgates\tdiverselint\n'
printf 'unseeded\t%s\n' "$(oracles)"
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	if ! git apply "$p"; then
		printf '%s\tdoes not apply\n' "$name"
		continue
	fi
	printf '%s\t%s\n' "$name" "$(oracles)"
	git checkout -q . && git clean -qfd -e .corpus
done
