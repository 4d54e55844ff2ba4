#!/usr/bin/env bash
# Sim-mode parity check: run every a1bench report in quick mode at <rev>
# and in the working tree, and require the JSON reports to be
# byte-identical. Sim-mode figures are virtual-clock and deterministic per
# seed, so a refactor that keeps behaviour and cost must leave every one
# of them unchanged. allocs.json is skipped: it is the Direct-mode
# wall-clock/allocs report and differs between any two runs.
#
# Usage (from anywhere in the repo):
#   scripts/simparity.sh <rev>      # e.g. scripts/simparity.sh HEAD~1
#
# <rev> is checked out into a temporary git worktree, removed on exit.
# Exits 1 and lists the differing reports when any differ.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  git -C "$root" worktree prune >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$tmp/base" "$rev" >/dev/null 2>&1

run() { # run <checkout> <outdir>
  if ! (cd "$1" && go run ./cmd/a1bench -experiment all -quick -json "$2") >"$tmp/log" 2>&1; then
    cat "$tmp/log" >&2
    echo "simparity: a1bench failed in $1" >&2
    exit 1
  fi
}
run "$tmp/base" "$tmp/old"
run "$root" "$tmp/new"

if ! ls "$tmp"/new/*.json >/dev/null 2>&1; then
  echo "simparity: no reports written" >&2
  exit 1
fi
differ=()
for f in "$tmp"/old/*.json "$tmp"/new/*.json; do
  name=$(basename "$f")
  [ "$name" = allocs.json ] && continue
  case " ${differ[*]-} " in *" $name "*) continue ;; esac
  if ! cmp -s "$tmp/old/$name" "$tmp/new/$name"; then
    differ+=("$name")
  fi
done

if [ ${#differ[@]} -gt 0 ]; then
  echo "simparity: Sim-mode reports differ from $rev:" >&2
  printf '  %s\n' "${differ[@]}" >&2
  exit 1
fi
echo "simparity: every Sim-mode report matches $rev"
