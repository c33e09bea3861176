#!/usr/bin/env bash
# Writes three hostile kl-lint --graph descriptions into DIR; kl-lint must
# reject each with exit 2 (usage/input error) and do so quickly:
#
#   negative_size.json  buffer 'a' of -4096 bytes, memset twice unordered
#                       (an empty extent would hide the write/write hazard)
#   wrapping_sizes.json five 2^62-byte buffers, whose synthetic address
#                       ranges would wrap 64 bits and alias 'a' with 'e'
#   long_chain.json     4000 chained memsets of one buffer, past the node
#                       cap (KL009 is cubic in the node count)
#
# Usage: hostile_graphs.sh DIR
set -eu

dir=$1

cat > "$dir/negative_size.json" << 'EOF'
{"buffers": {"a": -4096},
 "nodes": [{"kind": "memset", "dst": "a"}, {"kind": "memset", "dst": "a"}]}
EOF

cat > "$dir/wrapping_sizes.json" << 'EOF'
{"buffers": {"a": 4611686018427387904, "b": 4611686018427387904,
             "c": 4611686018427387904, "d": 4611686018427387904,
             "e": 4611686018427387904},
 "nodes": [{"kind": "memset", "dst": "a"}, {"kind": "memset", "dst": "e"}]}
EOF

{
    printf '{"buffers": {"a": 4096},\n "nodes": [{"kind": "memset", "dst": "a"}'
    for ((i = 1; i < 4000; i++)); do
        printf ',\n  {"kind": "memset", "dst": "a", "deps": [%d]}' $((i - 1))
    done
    printf ']}\n'
} > "$dir/long_chain.json"
