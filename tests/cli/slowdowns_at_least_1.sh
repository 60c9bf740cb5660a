#!/bin/sh
# Passes when every slowdown COMMAND prints is "n/a" or at least 1 (no run
# beats a dedicated cluster): the "slowdown" and "worst job" columns of its
# table rows ("| R:1 | ..."), and the numbers of its "mean slowdown over the
# sweep" line.  Fails when either is missing.  COMMAND's exit status is not
# checked: a short run may miss the bench's claims by design.
#
# usage: slowdowns_at_least_1.sh COMMAND...
"$@" | awk -F'|' '
  function check(v) {
    gsub(/ /, "", v)
    if (v != "n/a" && v + 0 < 1.0) {
      print "slowdown below 1: " v
      bad = 1
    }
  }
  /^\| [0-9.]+:1 / { rows++; check($6); check($7) }
  /^mean slowdown over the sweep:/ {
    seen = 1
    n = split($0, w, /[ ,]+/)
    for (i = 1; i <= n; i++) if (w[i] ~ /^([0-9.]+|n\/a)$/) check(w[i])
  }
  END {
    if (!rows || !seen) {
      print "no slowdown table or sweep summary in the output"
      exit 1
    }
    exit bad
  }'
