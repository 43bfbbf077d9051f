#!/usr/bin/env bash
# Cross-build checkpoint compatibility: does NEW's machine state match
# OLD's, byte for byte, and do OLD's checkpoints still restore under NEW?
#
# For each run below, both builds write checkpoints with
# `glocksim --checkpoint-every`. Then:
#
#   1. every checkpoint file of OLD must be byte-identical to NEW's file
#      of the same run and cycle (`cmp`; a difference names the file, and
#      `NEW/glocksim --restore` on OLD's file names the first differing
#      section);
#   2. every OLD file, restored with `NEW/glocksim --restore --csv`, must
#      reproduce NEW's uninterrupted CSV exactly.
#
# The runs cover a clean machine, one with a `mesh:` fault plan (link
# ARQ state, a scripted link death and detour routing in the archive) and
# a 64-core machine, whose GLocks run on the hierarchical G-line network.
# Only existing flags are used, so OLD may be any revision that writes
# the same archive version; when the two builds write different versions
# the script fails up front and names both.
#
# Usage: scripts/check_ckpt_compat.sh OLD_BUILD NEW_BUILD
#   (build directories holding src/tools/glocksim; files land in
#   NEW_BUILD/ckpt-compat)
set -euo pipefail

[[ $# -eq 2 ]] || {
  echo "usage: $0 OLD_BUILD NEW_BUILD" >&2; exit 2; }
OLD="$1/src/tools/glocksim"
NEW="$2/src/tools/glocksim"
for bin in "$OLD" "$NEW"; do
  [[ -x "$bin" ]] || { echo "FAIL: no glocksim binary at $bin" >&2; exit 2; }
done
WORK="$2/ckpt-compat"
rm -rf "$WORK"
mkdir -p "$WORK"

# name|glocksim flags
RUNS=(
  "clean|--workload SCTR --lock glock --cores 16 --scale 0.25"
  "mesh|--workload MCTR --lock mcs --cores 16 --scale 0.25 --faults mesh:drop=1e-4,mesh:kill=1.e@2000"
  "hier|--workload SCTR --lock glock --cores 64 --scale 0.25"
)
EVERY=1500

# The archive version: the little-endian u32 after the 8-byte magic.
version() {
  local b
  read -r -a b <<< "$(od -An -tu1 -j8 -N4 "$1")"
  echo $(( b[0] | b[1] << 8 | b[2] << 16 | b[3] << 24 ))
}

files=0
for entry in "${RUNS[@]}"; do
  name="${entry%%|*}"
  read -r -a run <<< "${entry#*|}"
  mkdir -p "$WORK/$name/old" "$WORK/$name/new"
  "$NEW" "${run[@]}" --csv > "$WORK/$name/plain.csv"
  for side in old new; do
    bin="$OLD"; [[ "$side" == new ]] && bin="$NEW"
    "$bin" "${run[@]}" --csv --checkpoint-every "$EVERY" \
      --checkpoint-dir "$WORK/$name/$side" \
      > "$WORK/$name/$side.csv" 2> "$WORK/$name/$side.err"
  done
  cmp "$WORK/$name/old.csv" "$WORK/$name/new.csv" || {
    echo "FAIL: $name: OLD and NEW report different results" >&2; exit 1; }

  old_list=$(cd "$WORK/$name/old" && ls)
  new_list=$(cd "$WORK/$name/new" && ls)
  [[ -n "$old_list" ]] || {
    echo "FAIL: $name: OLD wrote no checkpoint files" >&2; exit 1; }
  [[ "$old_list" == "$new_list" ]] || {
    echo "FAIL: $name: OLD and NEW wrote different checkpoint sets" >&2
    exit 1; }
  first=${old_list%%$'\n'*}
  old_v=$(version "$WORK/$name/old/$first")
  new_v=$(version "$WORK/$name/new/$first")
  [[ "$old_v" == "$new_v" ]] || {
    echo "FAIL: $name: OLD writes v$old_v, NEW writes v$new_v" >&2
    exit 1; }

  for f in $old_list; do
    files=$((files + 1))
    cmp "$WORK/$name/old/$f" "$WORK/$name/new/$f" || {
      echo "FAIL: $name: $f differs between OLD and NEW" >&2
      "$NEW" --restore "$WORK/$name/old/$f" --csv > /dev/null || true
      exit 1; }
    "$NEW" --restore "$WORK/$name/old/$f" --csv > "$WORK/$name/restored.csv"
    cmp "$WORK/$name/plain.csv" "$WORK/$name/restored.csv" || {
      echo "FAIL: $name: NEW's restore of OLD's $f diverged from the" \
           "uninterrupted run" >&2
      exit 1; }
  done
done

echo "checkpoint compatibility passed ($files file(s) identical and" \
     "restored across builds)."
