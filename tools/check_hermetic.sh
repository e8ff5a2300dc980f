#!/usr/bin/env bash
# Hermetic-build gate (see DESIGN.md, "Determinism & vendored utilities").
#
# Enforces the workspace invariant that every dependency is a `path`
# dependency inside this repository — no crates.io registry, no git
# dependencies, no network — and that the public API documentation builds
# cleanly. Run from anywhere:
#
#   tools/check_hermetic.sh
#
# Exit code 0 = hermetic and documented; non-zero otherwise.

set -u
cd "$(dirname "$0")/.."

fail=0

# 1. Every [dependencies]/[dev-dependencies]/[workspace.dependencies] entry in
#    every Cargo.toml must be a path dependency (or a profile/package key).
#    A registry dependency looks like `name = "1.2"` or
#    `name = { version = ... }`; a git dependency has `git = ...`.
edges_file="$(mktemp)"
trap 'rm -f "$edges_file"' EXIT
for manifest in Cargo.toml crates/*/Cargo.toml; do
    in_deps=0
    section=""
    lineno=0
    while IFS= read -r line; do
        lineno=$((lineno + 1))
        # Strip comments and surrounding whitespace.
        stripped="${line%%#*}"
        stripped="$(printf '%s' "$stripped" | sed -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//')"
        [ -z "$stripped" ] && continue
        case "$stripped" in
            \[*dependencies\]|\[workspace.dependencies\])
                in_deps=1
                section="${stripped#\[}"
                section="${section%\]}"
                continue
                ;;
            \[*\])
                in_deps=0
                continue
                ;;
        esac
        [ "$in_deps" -eq 1 ] || continue
        key="${stripped%%=*}"
        key="$(printf '%s' "$key" | sed -e 's/[[:space:]]*$//')"
        echo "$manifest $section ${key%.workspace}" >> "$edges_file"
        # `name.workspace = true` — inherited from the (audited) workspace table.
        case "$key" in
            *.workspace) continue ;;
        esac
        # Split `name = value` and classify the value.
        value="${stripped#*=}"
        value="$(printf '%s' "$value" | sed -e 's/^[[:space:]]*//')"
        case "$value" in
            \"*)
                # `name = "1.2"` — a bare version string is a registry dep.
                echo "HERMETIC VIOLATION: $manifest:$lineno: registry dependency: $stripped"
                fail=1
                ;;
            *git*=*)
                echo "HERMETIC VIOLATION: $manifest:$lineno: git dependency: $stripped"
                fail=1
                ;;
            *version*=*)
                echo "HERMETIC VIOLATION: $manifest:$lineno: registry (version) dependency: $stripped"
                fail=1
                ;;
            *path*=*|*workspace*=*)
                : # path or workspace-inherited (the workspace table is checked too)
                ;;
            *)
                echo "HERMETIC VIOLATION: $manifest:$lineno: unrecognized dependency form: $stripped"
                fail=1
                ;;
        esac
    done < "$manifest"
done

if [ "$fail" -ne 0 ]; then
    echo "check_hermetic: dependency audit FAILED"
    exit 1
fi
echo "check_hermetic: all Cargo.toml dependencies are path-only"

# 1a. The dependency graph itself is pinned: every `[dependencies]` /
#     `[dev-dependencies]` / `[workspace.dependencies]` entry in every
#     manifest must appear in the baseline below. Adding a dependency —
#     even a path-only, workspace-internal one — is a deliberate act that
#     must update this list in the same change, so a PR can never grow the
#     graph silently.
baseline_file="$(mktemp)"
sorted_edges_file="$(mktemp)"
trap 'rm -f "$edges_file" "$baseline_file" "$sorted_edges_file"' EXIT
cat > "$baseline_file" <<'EOF'
Cargo.toml dependencies aadl
Cargo.toml dependencies aadl2acsr
Cargo.toml dependencies acsr
Cargo.toml dependencies cas
Cargo.toml dependencies obs
Cargo.toml dependencies sched-baselines
Cargo.toml dependencies versa
Cargo.toml dev-dependencies det
Cargo.toml workspace.dependencies aadl
Cargo.toml workspace.dependencies aadl2acsr
Cargo.toml workspace.dependencies acsr
Cargo.toml workspace.dependencies cas
Cargo.toml workspace.dependencies det
Cargo.toml workspace.dependencies obs
Cargo.toml workspace.dependencies sched-baselines
Cargo.toml workspace.dependencies versa
crates/aadl/Cargo.toml dev-dependencies det
crates/acsr/Cargo.toml dev-dependencies det
crates/acsr/Cargo.toml dev-dependencies versa
crates/baselines/Cargo.toml dependencies aadl
crates/baselines/Cargo.toml dependencies det
crates/bench/Cargo.toml dependencies aadl
crates/bench/Cargo.toml dependencies aadl2acsr
crates/bench/Cargo.toml dependencies acsr
crates/bench/Cargo.toml dependencies cas
crates/bench/Cargo.toml dependencies det
crates/bench/Cargo.toml dependencies obs
crates/bench/Cargo.toml dependencies sched-baselines
crates/bench/Cargo.toml dependencies versa
crates/core/Cargo.toml dependencies aadl
crates/served/Cargo.toml dependencies aadl
crates/served/Cargo.toml dependencies aadl2acsr
crates/served/Cargo.toml dependencies cas
crates/served/Cargo.toml dependencies obs
crates/served/Cargo.toml dependencies versa
crates/core/Cargo.toml dependencies acsr
crates/core/Cargo.toml dependencies obs
crates/core/Cargo.toml dependencies versa
crates/versa/Cargo.toml dependencies acsr
crates/versa/Cargo.toml dependencies cas
crates/versa/Cargo.toml dependencies det
crates/versa/Cargo.toml dependencies obs
EOF
LC_ALL=C sort -o "$baseline_file" "$baseline_file"
LC_ALL=C sort -u "$edges_file" > "$sorted_edges_file"
if ! diff -u "$baseline_file" "$sorted_edges_file" > /dev/null; then
    echo "HERMETIC VIOLATION: the dependency graph changed (manifest section name):"
    diff -u "$baseline_file" "$sorted_edges_file" | grep '^[+-][^+-]' || true
    echo "check_hermetic: update the baseline in tools/check_hermetic.sh if this is intentional"
    exit 1
fi
echo "check_hermetic: dependency graph matches the pinned baseline"

# 1b. The observability crate must stay entirely std-only: an EMPTY
#     [dependencies] section. Instrumentation sits on the hot exploration
#     path of every other crate, so it must never pull anything in —
#     not even workspace-internal crates (which would invert the
#     dependency direction and invite cycles).
obs_deps="$(awk '/^\[dependencies\]/{flag=1; next} /^\[/{flag=0} flag' crates/obs/Cargo.toml \
    | sed -e 's/#.*//' -e '/^[[:space:]]*$/d')"
if [ -n "$obs_deps" ]; then
    echo "HERMETIC VIOLATION: crates/obs must have zero dependencies, found:"
    echo "$obs_deps"
    exit 1
fi
echo "check_hermetic: crates/obs is dependency-free"

# 2. The lockfile, if present, must not reference any registry source.
if [ -f Cargo.lock ] && grep -q 'source = "registry' Cargo.lock; then
    echo "HERMETIC VIOLATION: Cargo.lock references a registry source"
    exit 1
fi

# 3. Public API docs must build without warnings (broken intra-doc links,
#    missing docs on public items, etc. are errors).
if ! RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace; then
    echo "check_hermetic: cargo doc FAILED"
    exit 1
fi
echo "check_hermetic: OK"
