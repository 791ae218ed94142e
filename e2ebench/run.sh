#!/bin/sh
# Build the benchmark and the serve daemon from source (release profile)
# and run one workload from the root of the checkout:
#
#   sh e2ebench/run.sh --workload figure_grid --seed 1 --seconds 15 --trace 0
#
# The benchmark is a dune project of its own, in e2ebench/_wpbench,
# which the repository's own build skips (dune ignores directories
# starting with "_").  It links the simulator's library, which is
# private to the project that defines it, so the build workspace
# .bench_build/ws holds the benchmark's project file and sources next
# to fresh copies of lib/, bin/ and the root dune file.  Traces and
# per-run results go to .bench_out/.  Build messages go to stderr; the
# last line of stdout is the result JSON.
set -e
cd "$(dirname "$0")/.."
ws=.bench_build/ws
rm -rf "$ws/lib" "$ws/bin" "$ws/wpbench"
mkdir -p "$ws/wpbench"
cp -R lib bin "$ws/"
cp dune "$ws/dune"
cp e2ebench/_wpbench/dune-project "$ws/dune-project"
cp e2ebench/_wpbench/dune e2ebench/_wpbench/*.ml "$ws/wpbench/"
DUNE_CACHE=disabled dune build --root "$ws" --profile release \
  ./wpbench/wpbench.exe ./bin/wayplace_cli.exe 1>&2
WPBENCH_PROFILE=release
WPBENCH_COMMIT=unknown
if [ -d .git ]; then
  WPBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export WPBENCH_PROFILE WPBENCH_COMMIT
exec "$ws/_build/default/wpbench/wpbench.exe" \
  --cli "$ws/_build/default/bin/wayplace_cli.exe" "$@"
