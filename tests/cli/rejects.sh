#!/bin/sh
# Passes when COMMAND is refused as a usage error: exit status 2 (not a
# signal), nothing on stdout (no run started), a stderr line "error: ..."
# that contains PATTERN (the flag it names), and at most two stderr lines,
# so the error is not scrolled away by the full usage.
#
# usage: rejects.sh PATTERN COMMAND...
pattern=$1
shift
err=$(mktemp)
trap 'rm -f "$err"' EXIT
out=$("$@" 2>"$err")
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2, got $rc"
  cat "$err"
  exit 1
fi
if [ -n "$out" ]; then
  echo "expected no output, got:"
  echo "$out"
  exit 1
fi
grep -q "^error: .*$pattern" "$err" || {
  echo "no 'error: ...$pattern' line in:"
  cat "$err"
  exit 1
}
lines=$(wc -l <"$err")
if [ "$lines" -gt 2 ]; then
  echo "expected at most 2 stderr lines, got $lines:"
  cat "$err"
  exit 1
fi
