#!/usr/bin/env bash
# Tiered test gate, as documented in docs/testing.md.
#
#   tier 1  fast correctness suite — the merge gate; excludes anything
#           marked tier2 or timing.  Builds the native library (the SR
#           conv and colour kernels) first (a missing or failing C
#           compiler stops the gate with its stderr), then runs the source guards (below), then the
#           perfbench tier (a removed or renamed public name the
#           benchmark uses fails the merge gate, not the benchmark run),
#           and the executable-docs suite explicitly, so a broken fenced
#           example or a thread sneaking into the serve layer fails the
#           merge gate even if someone narrows the pytest selection.
#           Each tier-1 test runs once: the full pass --ignores the guard
#           files and tests/test_docs.py, which their own steps ran.
#   tier 2  slower, benchmark-adjacent tests plus wall-clock timing
#           guards; run before release or after touching hot paths
#   net     real-socket tests (loopback asyncio origin, chaos proxy,
#           dual-transport contract suite); marked `net`, run on
#           ephemeral ports with a leaked-task guard
#   perfbench  the benchmark's own tests (perfbench/tests, outside the
#           tier-1 testpaths; about 25 s, also run by tier 1): the only
#           in-repo check that every name perfbench/ imports from repro
#           still exists and that each workload still runs end to end at
#           smoke size
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
#     And the other direction: no call in src/repro passes a training=
#     keyword, and .forward( is called only from repro/nn/,
#     repro/features/, sr/edsr.py and sr/trainer.py — a trained model
#     runs through InferenceEngine, never a layer's caching forward.
#   - tests/sr/test_no_unbounded_reuse.py — no unbounded temporal reuse
#     cache in library code: every TileReuseCache must carry an explicit
#     entry budget (an unbounded cache is a per-session memory leak).
#   - tests/net/test_no_threads_net.py — no threading in src/repro/net/:
#     the real transport's loopback topology (client + origin on one
#     event loop) and the chaos proxy's request<->attempt mapping
#     require a single thread of control.
#   - tests/control/test_no_upward_imports.py — no upward imports from
#     src/repro/{control,core,sr,nn,video}/: they are consumed by the
#     fleet scheduler, the real transport and the CLI, so importing
#     repro.serve, repro.net or repro.cli from them would cycle the
#     layer graph.  Nor does any library layer (those five plus obs,
#     serve, net) import repro.bench, which sits just under the CLI.
#     Nor does src/repro/abr/ import repro.core or repro.control (nor
#     anything above them): core sessions play on its PlayoutClock and
#     control's bridge adapts to its policies, so core -> control -> abr
#     must stay acyclic.  Nor does src/repro/native/ (the compiled
#     kernels' build and load, the bottom layer) import any other repro
#     package.
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
#     (tests/nn/reference_shift.py) over a seeded sweep of shapes (tile
#     and frame sized included), channels, kernel sizes, precisions and
#     epilogues, sums of zero products +0.0 as uint32, one native call
#     per conv and frame and no sgemm / np.matmul in an engine forward,
#     no copy of the input and no frame-sized copy in the epilogue at any
#     precision, zero pad pixels after every layer (seconds).
#   - tests/nn/test_native_kernel.py — the native library's build and
#     the conv kernel's ISA contract: each variant this host builds
#     (AVX-512, AVX2+FMA, scalar fmaf) returns the reference bits as
#     uint32 over a reduced sweep; NaN and inf pixels land where the
#     reference puts them; four threads' first conv, or first colour
#     conversion, in a fresh process builds one library once; a
#     trace-mode fleet process never builds or loads it; a missing or
#     failing compiler is a KernelBuildError with the command and its
#     stderr.
#   - tests/video/test_color_native.py — the compiled colour conversion:
#     both directions equal, bit for bit, to the numpy formulas kept in
#     tests/video/color_reference.py (RGB as uint32, YUV as uint8) at
#     2x2, 48x64, 352x640 and 720x1280, on .5 rounding ties, clipped
#     chroma, 0 and 255, overshoots, strided and float64 input and
#     decoded frames; validate_rgb's bounds to the float32 and NaN; two
#     threads converting at once (seconds).
#   - tests/codec/test_vector_parse.py — the decode's array passes: an
#     I frame's (modes, coded, levels, end bit) equal to the per-symbol
#     walk kept in tests/codec/reference_intra.py, a P or B frame's
#     (modes, mvs, coded, levels, end bit) equal to the one kept in
#     tests/codec/reference_inter.py, without a fallback, on every frame
#     of the oracle and fuzz streams and on 352x640 I, P and B frames; one
#     hand-built stream per anomaly class (intra and inter) ending as the
#     scalar reference does; on 2,000 seeded random bit strings the inter
#     passes return only what the walk returns, and fall back wherever it
#     raises; BitReader.read_ue calls for frame headers
#     only; fused Y/U/V wavefront equal to the per-plane one (seconds).
#   - tests/abr/test_playout_reference.py — the ABR simulator on the
#     shared PlayoutClock: over 2,000 seeded sessions (ladders with
#     segments beyond the buffer cap and videos shorter than the startup
#     buffer, constant / step / random-walk traces) the same decisions
#     and, to 1e-12 relative, the same rebuffer, startup, energy and bits
#     as the simulator's own recurrence kept in
#     tests/abr/reference_simulate.py; buffer-threshold policies replay
#     the reference's choices (seconds).
#   - tests/sr/test_gate_statistic.py — the skip gate's statistic: the
#     tile variance equal, bit for bit, to
#     interior.mean(axis=3).var(axis=(1, 2)) on every tile of a 352x640
#     frame at tile 128, tile 12 on 30x40, one-pixel tiles, N in {1, 3}
#     and strided views; a gated engine whose tile variances straddle
#     the threshold runs and skips the same tiles and returns the same
#     bits as with that expression (seconds).
#   - tests/codec/test_frame_search.py — the encoder's whole-frame motion
#     search: vector, SAD and mode equal to the per-macroblock search kept
#     in tests/codec/scalar_reference.py over a seeded sweep (32x16,
#     48x64, 48x80 and one 352x640 frame; search range 1, 3, 7, 20;
#     half-pel on and off; P and B; constant, flat and striped frames
#     where offsets tie; B frames with equal references), and its peak
#     allocation at 352x640, +/-20 bounded by tracemalloc (seconds).
#   - tests/test_cli_configs.py — the CLI's flag-to-config mapping: for a
#     table of play/serve argv (every flag, the flagless runs, explicit
#     defaults such as --fail-rate 0 and --sr-kernel shift) the configs,
#     network, retry policy and controller arguments handed to
#     DcsrClient / FleetSimulator equal the recorded ones; the library
#     constructors are replaced by recorders, so it builds no package
#     and plays nothing (about a second).
#   - tests/test_public_surface.py — every public module-level function
#     and class in src/repro, and every public method and property of a
#     reached public class, is reached from code that runs outside the
#     tests (repro.cli, perfbench/, benchmarks/, examples/, the python
#     blocks of README and docs), or is listed, with its reason, as a
#     test oracle kept on purpose; and every knob (a defaulted parameter
#     of a public function or method, or a defaulted field of a *Config /
#     *Policy dataclass) is set by one of those roots or another library
#     module, or listed in ALLOWED_KNOBS with a reason (static, a few
#     seconds).
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
    tests/nn/test_native_kernel.py
    tests/video/test_color_native.py
    tests/codec/test_vector_parse.py
    tests/abr/test_playout_reference.py
    tests/sr/test_gate_statistic.py
    tests/codec/test_frame_search.py
    tests/test_cli_configs.py
    tests/test_public_surface.py
)

build_kernel() {
    echo "== native library build (SR conv + colour kernels) =="
    python -c "from repro import native; print(native.build())"
}

run_guards() {
    echo "== guards =="
    python -m pytest -x -q --strict-markers -m "not tier2 and not timing" \
        "${GUARDS[@]}"
}

DOCS=tests/test_docs.py

run_tier1() {
    build_kernel
    run_guards
    run_perfbench
    echo "== tier 1: fast correctness gate (guards and docs excluded) =="
    python -m pytest -x -q --strict-markers -m "not tier2 and not timing" \
        "${GUARDS[@]/#/--ignore=}" --ignore="$DOCS"
    echo "== tier 1: executable docs =="
    python -m pytest -x -q --strict-markers "$DOCS"
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
    all)   run_tier1; run_tier2; run_net ;;
    *) echo "usage: $0 [tier1|tier2|net|perfbench|all]" >&2; exit 2 ;;
esac
