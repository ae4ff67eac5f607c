#!/usr/bin/env bash
# Tiered test gate, as documented in docs/testing.md.
#
#   tier 1  fast correctness suite — the merge gate; excludes anything
#           marked tier2 or timing.  Runs the static source guards
#           (below) first and the executable-docs suite explicitly, so a
#           broken fenced example or a thread sneaking into the serve
#           layer fails the merge gate even if someone narrows the
#           pytest selection.
#   tier 2  slower, benchmark-adjacent tests plus wall-clock timing
#           guards; run before release or after touching hot paths
#   net     real-socket tests (loopback asyncio origin, chaos proxy,
#           dual-transport contract suite); marked `net`, run on
#           ephemeral ports with a leaked-task guard
#   perfbench  the benchmark's own tests (perfbench/tests, outside the
#           tier-1 testpaths): the only in-repo check that every name
#           perfbench/ imports from repro still exists and that each
#           workload still runs end to end at smoke size
#
# Guards (run first so violations fail in seconds; each guard lives in
# exactly one place — its test file — and this script only decides when
# it runs).  The first five are static AST tests:
#   - tests/serve/test_no_threads.py — no thread spawning inside
#     src/repro/serve/: the fleet's determinism contract requires every
#     session to run on the discrete-event loop.
#   - tests/nn/test_no_quant_in_training.py — no packed weight in the
#     training path (optimizer, SR trainer, gradient checker, losses):
#     packing — where a reduced precision lives — is inference-only.
#   - tests/sr/test_no_unbounded_reuse.py — no unbounded temporal reuse
#     cache in library code: every TileReuseCache must carry an explicit
#     entry budget (an unbounded cache is a per-session memory leak).
#   - tests/net/test_no_threads_net.py — no threading in src/repro/net/:
#     the real transport's loopback topology (client + origin on one
#     event loop) and the chaos proxy's connection<->attempt mapping
#     require a single thread of control.
#   - tests/control/test_no_upward_imports.py — no upward imports from
#     src/repro/{control,core,sr,nn,video}/: they are consumed by the
#     fleet scheduler, the real transport and the CLI, so importing
#     repro.serve, repro.net or repro.cli from them would cycle the
#     layer graph.  Nor does any library layer (those five plus obs,
#     serve, net) import repro.bench, which sits just under the CLI.
#     Nor do the link modules (core/network.py, serve/netpool.py,
#     net/transport.py) mention Observability or a metrics registry:
#     a link counts in its own stats, the session ledger feeds metrics.
#   - tests/core/test_build_digests.py — the server build contract: three
#     tiny configs built at workers=1, thread x2 and process x2 must
#     reproduce, bit for bit, the artifact digests recorded before the
#     stages moved onto one runner (~10 s, not static — it builds).
#   - tests/serve/test_pool_reference.py — the fair-share pool's
#     arithmetic: every duration equal to the pair-list reference pool's
#     over 200 seeded sequences, and pool / fleet digests recorded from
#     it (seconds; the only recorded-value check on fleet arithmetic —
#     every other serve test compares a run with itself).
#   - tests/nn/test_shift_reference.py — the SR conv kernel's arithmetic:
#     output equal, bit for bit, to the per-row kernel it replaced
#     (tests/nn/reference_shift.py) over a seeded sweep of shapes,
#     channels, kernel sizes, precisions and epilogues, one in-place
#     sgemm per tap and frame, zero pad pixels after every layer
#     (seconds).
#   - tests/codec/test_vector_parse.py — the I-frame decode's array
#     passes: (modes, coded, levels, end bit) equal to the per-symbol walk
#     kept in tests/codec/reference_intra.py on every I frame of the oracle
#     and fuzz streams and one 352x640 frame, one hand-built stream per
#     anomaly class ending as the scalar reference does, no
#     BitReader.read_ue call after an intact I frame's header, fused
#     Y/U/V wavefront equal to the per-plane one (seconds).
#
# --strict-markers turns any unregistered @pytest.mark.<name> into a
# collection error, so a typo'd tier mark cannot silently drop a test
# out of the gate.
#
# Usage: scripts/check_tests.sh [tier1|tier2|net|perfbench|all]   (default: all)

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-all}"

GUARDS=(
    tests/serve/test_no_threads.py
    tests/nn/test_no_quant_in_training.py
    tests/sr/test_no_unbounded_reuse.py
    tests/net/test_no_threads_net.py
    tests/control/test_no_upward_imports.py
    tests/core/test_build_digests.py
    tests/serve/test_pool_reference.py
    tests/nn/test_shift_reference.py
    tests/codec/test_vector_parse.py
)

run_guards() {
    echo "== guards =="
    python -m pytest -x -q --strict-markers -m "not tier2 and not timing" \
        "${GUARDS[@]}"
}

run_tier1() {
    run_guards
    echo "== tier 1: fast correctness gate =="
    python -m pytest -x -q --strict-markers -m "not tier2 and not timing"
    echo "== tier 1: executable docs =="
    python -m pytest -x -q --strict-markers tests/test_docs.py
}

run_tier2() {
    echo "== tier 2: slow / timing-sensitive =="
    python -m pytest -q --strict-markers -m "tier2 or timing"
}

run_net() {
    echo "== net: real-socket tier (loopback, ephemeral ports) =="
    python -m pytest -q --strict-markers tests/net
}

run_perfbench() {
    echo "== perfbench: the benchmark's own tests =="
    python3 -m pytest -q perfbench/tests
}

case "$tier" in
    tier1) run_tier1 ;;
    tier2) run_tier2 ;;
    net)   run_net ;;
    perfbench) run_perfbench ;;
    all)   run_tier1; run_tier2; run_net; run_perfbench ;;
    *) echo "usage: $0 [tier1|tier2|net|perfbench|all]" >&2; exit 2 ;;
esac
