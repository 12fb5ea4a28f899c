#!/usr/bin/env bash
# Sanitizer entry points for the concurrent serving stack (DESIGN.md §5d).
#
#   scripts/sanitize.sh miri   # Miri UB check on deterministic unit tests
#   scripts/sanitize.sh tsan   # ThreadSanitizer on the engine concurrency tests
#
# Both modes shrink the heavy fixtures through BIONAV_SANITIZER_SCALE (see
# bionav_mesh::synth::sanitizer_scale) so an instrumented run finishes in
# minutes. Each mode degrades to a SKIP (exit 0) when its toolchain pieces
# are not installed, so the script is safe to run anywhere; CI installs the
# nightly components and therefore actually executes the checks.
set -euo pipefail

mode="${1:-}"
scale="${BIONAV_SANITIZER_SCALE:-0.05}"

skip() {
    echo "sanitize.sh: SKIP ($1)"
    exit 0
}

have_nightly() {
    cargo +nightly --version >/dev/null 2>&1
}

case "$mode" in
miri)
    have_nightly || skip "no nightly toolchain; rustup toolchain install nightly"
    cargo +nightly miri --version >/dev/null 2>&1 \
        || skip "miri not installed; rustup +nightly component add miri"
    echo "== miri: bionav-mesh unit tests (scale $scale) =="
    BIONAV_SANITIZER_SCALE="$scale" MIRIFLAGS='-Zmiri-disable-isolation' \
        cargo +nightly miri test -p bionav-mesh --lib
    echo "== miri: bionav-core deterministic unit tests (scale $scale) =="
    # Telemetry + session/cut-cache + edgecut scratch arenas: the modules the
    # concurrency work touches, minus the thread-spawning engine tests (those
    # belong to TSan, where they run at native speed).
    BIONAV_SANITIZER_SCALE="$scale" MIRIFLAGS='-Zmiri-disable-isolation' \
        cargo +nightly miri test -p bionav-core --lib -- \
        telemetry:: session::tests::cut_cache edgecut::
    echo "== miri: bionav-proto sans-IO codec (scale $scale) =="
    # The whole proto suite is pure state-machine code (no sockets), so it
    # all runs under the interpreter; the chunk-invariance proptests scale
    # their case count through the same env var (vendor/proptest honors
    # BIONAV_SANITIZER_SCALE in ProptestConfig::default).
    BIONAV_SANITIZER_SCALE="$scale" MIRIFLAGS='-Zmiri-disable-isolation' \
        cargo +nightly miri test -p bionav-proto --lib
    echo "== miri: ShardSessionId packing boundaries (scale $scale) =="
    # Bit-level id tests only — the full shard fixtures drive sessions
    # from scoped threads, which belong to TSan below at native speed.
    BIONAV_SANITIZER_SCALE="$scale" MIRIFLAGS='-Zmiri-disable-isolation' \
        cargo +nightly miri test -p bionav-core --lib -- \
        shard::tests::session_id
    ;;
tsan)
    have_nightly || skip "no nightly toolchain; rustup toolchain install nightly"
    sysroot="$(rustc +nightly --print sysroot)"
    [ -d "$sysroot/lib/rustlib/src/rust/library" ] \
        || skip "rust-src not installed; rustup +nightly component add rust-src"
    host="$(rustc +nightly -vV | sed -n 's/^host: //p')"
    echo "== tsan: engine + session + shard tier concurrency tests (scale $scale, $host) =="
    # shard:: exercises the sharded tier (per-shard engines, sessions on
    # scoped threads, cross-shard routing) under race instrumentation; its corpus fixtures
    # shrink through the same scale env var.
    BIONAV_SANITIZER_SCALE="$scale" \
        RUSTFLAGS='-Zsanitizer=thread' \
        CARGO_TARGET_DIR=target/tsan \
        cargo +nightly test -Zbuild-std --target "$host" -p bionav-core --lib -- \
        engine:: session:: telemetry:: shard::
    ;;
*)
    echo "usage: scripts/sanitize.sh <miri|tsan>" >&2
    exit 2
    ;;
esac
