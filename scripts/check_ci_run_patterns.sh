#!/usr/bin/env bash
# check_ci_run_patterns.sh — fail when a CI test step selects no tests.
#
# `go test -run '<pat>'` passes quietly when <pat> matches nothing, so a
# renamed or deleted test turns its CI step into a no-op that stays
# green. For every `go test … -run '<pat>' <pkgs>` line in the workflow
# this lists the tests each alternative of <pat> selects
# (`go test -list`) and fails if any alternative selects none. Patterns
# containing parentheses are checked whole. `-run '^$'` (run no tests,
# used next to -bench and -fuzz) is skipped on purpose.
#
# Usage: check_ci_run_patterns.sh [workflow]   (default .github/workflows/ci.yml)
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
checked=0
failures=0

while IFS= read -r line; do
  pat=$(sed -E "s/.*-run[= ]'([^']*)'.*/\1/" <<<"$line")
  [ "$pat" = '^$' ] && continue
  # Packages are the ./… arguments after the pattern, up to any pipe.
  rest=${line#*"'$pat'"}
  rest=${rest%%|*}
  pkgs=()
  for tok in $rest; do
    case $tok in
      .|./*) pkgs+=("$tok") ;;
    esac
  done
  if [ ${#pkgs[@]} -eq 0 ]; then
    echo "FAIL: no packages found in: $line" >&2
    failures=$((failures + 1))
    continue
  fi
  alts=("$pat")
  case $pat in
    *'('*) ;;
    *) IFS='|' read -ra alts <<<"$pat" ;;
  esac
  for alt in "${alts[@]}"; do
    checked=$((checked + 1))
    n=$(go test -list "$alt" "${pkgs[@]}" | grep -cvE '^(ok|\?) ' || true)
    if [ "$n" -eq 0 ]; then
      echo "FAIL: -run '$pat': '$alt' selects no test in ${pkgs[*]}" >&2
      failures=$((failures + 1))
    else
      echo "ok: -run '$pat': '$alt' selects $n test(s) in ${pkgs[*]}"
    fi
  done
done < <(grep -E "go test .*-run[= ]'" "$wf")

if [ "$checked" -eq 0 ] && [ "$failures" -eq 0 ]; then
  echo "FAIL: no go test -run lines found in $wf" >&2
  exit 1
fi
[ "$failures" -eq 0 ]
