#!/bin/sh
# Runs a checkpointed ccml_sim command in a fresh directory and byte-compares
# the run spec stored in one of its snapshots with a golden file.
#
# usage: spec_matches.sh DIR GOLDEN SNAPSHOT COMMAND...
#   DIR       scratch directory, emptied first; COMMAND runs inside it
#   SNAPSHOT  snapshot path relative to DIR, e.g. ckpt/latest.ccml
set -e
here=$(cd "$(dirname "$0")" && pwd)
dir=$1 golden=$2 snapshot=$3
shift 3
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"
"$@" > stdout.txt
python3 "$here/snapshot_section.py" "$snapshot" spec > spec.txt
cmp spec.txt "$golden"
