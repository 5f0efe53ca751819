#!/usr/bin/env bash
# Compare the search-effort counters of a `legalize run --metrics-json`
# file with their recorded lines in ci/golden_effort.txt, e.g.
#
#   bash ci/golden_effort.sh "iccad2023/case2 1.00" out/case2_s1.metrics.json
#
# A counter absent from the file counts as 0.  Exits non-zero when the key
# has no line or any counter differs.
set -euo pipefail
key=$1
file=$2
golden="$(dirname "$0")/golden_effort.txt"
want=$(awk -v k="$key" '!/^#/ && NF == 4 && ($1 " " $2) == k { print $3 " " $4 }' "$golden")
if [ -z "$want" ]; then
  echo "error: no golden effort for '$key' in $golden" >&2
  exit 1
fi
status=0
while read -r counter value; do
  got=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["counters"].get(sys.argv[2], 0))' "$file" "$counter")
  if [ "$got" != "$value" ]; then
    echo "error: $key: $counter = $got, golden $value" >&2
    status=1
  else
    echo "$key: $counter = $got matches golden"
  fi
done <<< "$want"
exit $status
