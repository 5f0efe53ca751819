#!/usr/bin/env bash
# Compare the CRC-32 of a file with its recorded line in a golden digest
# file (default test/golden_placements.txt), e.g.
#
#   bash ci/golden_crc.sh "iccad2023/case2 1.00 cli" out/case2_s1.place
#   bash ci/golden_crc.sh "iccad2023/case2 1.00 export-lef" out/s1.lef test/golden_io.txt
#
# Exits non-zero when the key has no line or the digest differs.
set -euo pipefail
key=$1
file=$2
golden=${3:-"$(dirname "$0")/../test/golden_placements.txt"}
want=$(awk -v k="$key" '!/^#/ && NF == 4 && ($1 " " $2 " " $3) == k { print $4 }' "$golden")
got=$(python3 -c 'import sys, zlib; print("%08x" % zlib.crc32(open(sys.argv[1], "rb").read()))' "$file")
if [ -z "$want" ]; then
  echo "error: no golden digest for '$key' in $golden" >&2
  exit 1
fi
if [ "$got" != "$want" ]; then
  echo "error: $key: crc $got, golden $want" >&2
  exit 1
fi
echo "$key: crc $got matches golden"
