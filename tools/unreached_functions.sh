#!/usr/bin/env bash
# Lists the global functions of libcxlgraph.a that no product binary links,
# and fails when any of them is not a named test oracle.
#
# Products are what a user runs: cxlgraph_cli, trace_summary, fleet_report,
# every bench, every example, and perfbench's driver. They are built at -O0
# with -ffunction-sections and linked with --gc-sections, so a library
# function survives in a product only if the product can reach it. -O0
# matters: at higher levels a private helper that every caller inlined
# leaves no symbol behind and would be listed although the library calls
# it.
#
# Usage: tools/unreached_functions.sh [build-dir]   (default: build-reach)
set -euo pipefail

src=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-reach}

# Reached only by tests, kept as oracles that share no code with what they
# check. Each one's header says so.
oracles=(
  'cxlgraph::algo::sssp_dijkstra'
  'cxlgraph::algo::validate_bfs'
  'cxlgraph::algo::validate_sssp'
  'cxlgraph::analysis::expected_lines'
  'cxlgraph::analysis::littles_law_outstanding'
  'cxlgraph::analysis::optimal_transfer_bytes'
  'cxlgraph::analysis::predicted_uncached_raf'
  'cxlgraph::graph::make_complete'
  'cxlgraph::graph::make_path'
  'cxlgraph::graph::make_ring'
  'cxlgraph::graph::make_star'
)

# Build type None: no per-type flags, so nothing but -O0 applies.
cmake -B "$build" -S "$src" \
  -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DCXLGRAPH_BUILD_TESTS=OFF
cmake --build "$build" --parallel "$(nproc)"

# perfbench/ is its own CMake package; compile its driver against the
# same library, with the compiler and flags the build used, instead of
# configuring it.
cxx=$(sed -nE 's/^CMAKE_CXX_COMPILER:[A-Z]+=//p' "$build/CMakeCache.txt")
"$cxx" -std=c++20 -O0 -ffunction-sections -pthread \
  -DPERFBENCH_BUILD_TYPE='"O0"' -I"$src/src" \
  "$src/perfbench/perfbench.cpp" "$build/libcxlgraph.a" \
  -Wl,--gc-sections -o "$build/perfbench_driver"

products=("$build"/cxlgraph_cli "$build"/trace_summary "$build"/fleet_report
          "$build"/bench_* "$build"/example_* "$build"/perfbench_driver)

# Global (T) function symbols, demangled, one per line.
globals() { nm -C --defined-only "$@" | sed -nE 's/^[0-9a-f]+ T //p' | sort -u; }

unreached=$(comm -23 <(globals "$build/libcxlgraph.a") \
                     <(globals "${products[@]}"))
count=$(grep -c . <<< "$unreached" || true)
echo "${#products[@]} products; $count library functions no product links:"
unexpected=0
while IFS= read -r fn; do
  [[ -z $fn ]] && continue
  name=$(sed -E 's/\[abi:[^]]*\]//g' <<< "${fn%%(*}")
  tag='dead'
  for oracle in "${oracles[@]}"; do
    if [[ $name == "$oracle" ]]; then tag='oracle'; fi
  done
  [[ $tag == dead ]] && unexpected=$((unexpected + 1))
  printf '  %-6s %s\n' "$tag" "$fn"
done <<< "$unreached"

if ((unexpected > 0)); then
  echo "$unexpected unreached function(s) are not test oracles:" \
       "delete them, or give them a product caller" >&2
  exit 1
fi
