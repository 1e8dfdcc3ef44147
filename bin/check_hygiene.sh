#!/usr/bin/env bash
# Repo hygiene checks:
#
#  1. the build tree must stay out of version control — .gitignore must
#     carry the `_build/` rule and (when run inside a git work tree) no
#     _build artifact may actually be tracked;
#  2. every library module must have an interface — each lib/*/<m>.ml
#     needs a lib/*/<m>.mli, so library surfaces stay documented and
#     deliberate;
#  3. CLI resumability must stay coherent — any bin/*.ml that documents
#     --run-dir must document --resume and vice versa (a driver with
#     persistent state but no resume story, or the reverse, is a doc
#     bug);
#  4. the bench --json schema must keep the atlas cell counters
#     (atlas_cells / atlas_certified / atlas_quarantined) and the
#     daemon supervision counters (leases_reclaimed / redispatched /
#     dead_lettered), which downstream tooling reads from BENCH_*.json;
#  5. the README's documented daemon CLI must match reality — the
#     `verifyd flags:` line in README.md and the flags reported by
#     `verifyd --help` must be the same set, both ways (only checked
#     when a verifyd executable is passed as the second argument);
#  6. solver entry points must not re-grow scattered optional
#     arguments — `Sos.solve` takes configuration through
#     `?options:Sos.Options.t` only, and `Sdp.Session.solve` through
#     `?hint`/`?params` only (new knobs belong in the records);
#  7. performance PRs must carry bench evidence — when run in a git
#     work tree with pending changes under lib/sdp/ or lib/linalg/,
#     some BENCH_*.json must change too (regenerate with
#     `dune exec bench/main.exe -- --fast ... --json` and compare via
#     `bench ab`);
#  8. run-directory state and fault plans keep one substrate — outside
#     lib/substrate, no lib/ or bin/ source opens a file for appending
#     (`O_APPEND`/`Open_append`: a second ledger) or mentions the `'@'`
#     character (a second fault-token parser); both belong to
#     `Substrate.Wal` and `Substrate.Fault_plan`;
#  9. certification keeps one pipeline — outside lib/certificates and
#     lib/core, no lib/ or bin/ .ml file but lib/service/job.ml calls
#     `Certificates.attractive_invariant` or
#     `Pll_core.Inevitability.verify` (points and cells both go through
#     `Service.Job.certify`; interfaces may still name the
#     attractive_invariant type; bench/ and examples/ are exempt).
#
# Wired into `dune runtest` from test/dune; also runnable standalone:
#
#     bin/check_hygiene.sh [GITIGNORE] [VERIFYD_EXE]
set -eu

fail() { echo "check_hygiene: $*" >&2; exit 1; }

gitignore="${1:-"$(cd "$(dirname "$0")/.." && pwd)/.gitignore"}"
[ -f "$gitignore" ] || fail "no .gitignore at $gitignore"
grep -qx '_build/' "$gitignore" || fail "_build/ is not ignored by $gitignore"

repo="$(cd "$(dirname "$gitignore")" && pwd)"
missing=""
for ml in "$repo"/lib/*/*.ml; do
  [ -e "$ml" ] || continue
  [ -f "${ml%.ml}.mli" ] || missing="$missing ${ml#"$repo"/}"
done
[ -z "$missing" ] || fail "library modules without an .mli:$missing"

# CLI run-dir/resume doc coherence (check 3).
for ml in "$repo"/bin/*.ml; do
  [ -e "$ml" ] || continue
  has_run_dir=0; has_resume=0
  grep -q -- '"run-dir"' "$ml" && has_run_dir=1
  grep -q -- '"resume"' "$ml" && has_resume=1
  [ "$has_run_dir" = "$has_resume" ] || \
    fail "${ml#"$repo"/} documents only one of --run-dir/--resume; a persistent driver must offer both"
done

# Bench atlas + daemon-supervision counters (check 4).
bench="$repo/bench/main.ml"
if [ -f "$bench" ]; then
  for field in atlas_cells atlas_certified atlas_quarantined \
               leases_reclaimed redispatched dead_lettered; do
    grep -q "$field" "$bench" || \
      fail "bench/main.ml --json schema lost the $field counter"
  done
fi

# README daemon flags vs `verifyd --help` (check 5).
verifyd="${2:-}"
readme="$repo/README.md"
if [ -n "$verifyd" ] && [ -x "$verifyd" ] && [ -f "$readme" ]; then
  flags_line="$(grep -m1 '^verifyd flags:' "$readme" || true)"
  [ -n "$flags_line" ] || \
    fail "README.md lacks a 'verifyd flags:' line documenting the daemon CLI"
  readme_flags="$(printf '%s\n' "$flags_line" | grep -oE -- '--[a-z-]+' | sort -u)"
  help_flags="$("$verifyd" --help=plain 2>/dev/null | grep -oE -- '--[a-z-]+' \
    | grep -vE '^--(help|version)$' | sort -u)"
  [ -n "$help_flags" ] || fail "verifyd --help produced no flags ($verifyd)"
  if [ "$readme_flags" != "$help_flags" ]; then
    fail "README 'verifyd flags:' line drifts from verifyd --help: readme=[$(echo $readme_flags)] help=[$(echo $help_flags)]"
  fi
fi

# Solve entry points stay record-configured (check 6). Extract each
# declaration (from `val solve :` to the closing return type) and
# reject optional arguments outside the sanctioned set.
decl_optionals() { # emit the ?args of the first `val solve :` decl on stdin
  awk '/val solve :/{f=1} f{print; if (/solution/) exit}' \
    | grep -oE '\?[a-z_]+' | sort -u | tr -d '?'
}
sos_mli="$repo/lib/sos/sos.mli"
if [ -f "$sos_mli" ]; then
  extra="$(grep '^val solve' -A4 "$sos_mli" | decl_optionals | grep -vx 'options' || true)"
  [ -z "$extra" ] || \
    fail "Sos.solve grew scattered optional args ($(echo $extra)); add fields to Sos.Options.t instead"
fi
sdp_mli="$repo/lib/sdp/sdp.mli"
if [ -f "$sdp_mli" ]; then
  extra="$(sed -n '/^module Session/,/^end/p' "$sdp_mli" | decl_optionals \
    | grep -vxE 'hint|params' || true)"
  [ -z "$extra" ] || \
    fail "Sdp.Session.solve grew scattered optional args ($(echo $extra)); extend params or the session instead"
fi

# One ledger, one fault grammar (check 8).
strays="$(grep -lE "O_APPEND|Open_append|'@'" "$repo"/lib/*/*.ml "$repo"/bin/*.ml \
  2>/dev/null | grep -v "^$repo/lib/substrate/" || true)"
[ -z "$strays" ] || \
  fail "append-mode opens or '@' token splitting outside lib/substrate (use Substrate.Wal / Substrate.Fault_plan):$(echo " $strays" | sed "s|$repo/||g")"

# One certification pipeline (check 9).
strays="$(grep -lE 'Certificates\.attractive_invariant|Inevitability\.verify' \
  "$repo"/lib/*/*.ml "$repo"/bin/*.ml 2>/dev/null \
  | grep -vE "^$repo/lib/(certificates|core)/|^$repo/lib/service/job\.ml\$" || true)"
[ -z "$strays" ] || \
  fail "a second certification pipeline (call Service.Job.certify instead):$(echo " $strays" | sed "s|$repo/||g")"

if command -v git >/dev/null 2>&1; then
  root="$(git rev-parse --show-toplevel 2>/dev/null || true)"
  if [ -n "$root" ]; then
    tracked="$(git -C "$root" ls-files _build | head -n 1)"
    [ -z "$tracked" ] || fail "build artifacts are tracked: $tracked"
    # Perf changes need bench evidence (check 7): pending edits to the
    # solver core must be accompanied by a refreshed BENCH_*.json.
    pending="$(git -C "$root" diff --name-only HEAD -- 2>/dev/null || true)"
    if printf '%s\n' "$pending" | grep -qE '^lib/(sdp|linalg)/'; then
      printf '%s\n' "$pending" | grep -q 'BENCH_.*\.json' || \
        fail "lib/sdp or lib/linalg changed without a BENCH_*.json delta; regenerate (bench --json) and compare with 'bench ab'"
    fi
  fi
fi

echo "check_hygiene: OK"
