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
#  4. the run counters keep their readers — each daemon supervision
#     counter (leases_reclaimed / redispatched / dead_lettered) is
#     emitted by lib/service/daemon.ml's status and asserted by
#     test/soak_smoke.ml, and each atlas counter (certified /
#     quarantined) is emitted by Atlas.report_json as an integer
#     member (`("certified", int …)`) and asserted by
#     test/atlas_smoke.ml;
#  5. the README's documented daemon CLI must match reality — the
#     `verifyd flags:` line in README.md and the flags reported by
#     `verifyd --help` must be the same set, both ways (only checked
#     when a verifyd executable is passed as the second argument);
#  6. solver entry points must not re-grow scattered optional
#     arguments — `Sos.solve` takes configuration through
#     `?options:Sos.Options.t` only, and `Sdp.Session.solve` through
#     `?hint`/`?params` only (new knobs belong in the records);
#  7. solver-core changes must carry benchmark evidence — when run in
#     a git work tree with pending changes under lib/sdp/, lib/linalg/,
#     lib/poly/ (the polynomial kernel every certificate, sampler and
#     SOS program evaluates through), lib/sos/ (posing, which a cached
#     replay spends most of its solver-side time in), lib/certificates/
#     (the Lyapunov, level and Lemma-1 programs, the verdict's largest
#     layer) or lib/advect/ (the advection sampler, a replay's other
#     large layer), EXPERIMENTS.md must change too, and its added lines
#     must record a `benchsuite/run.sh ab OLD NEW` pair;
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
#     attractive_invariant type; bench/ and examples/ are exempt);
# 10. one fork site, one scheduler — outside lib/supervise no lib/ or
#     bin/ source calls `Unix.fork` or names `Supervise.Child.`,
#     `Heartbeat.install` or `Lease.grant`/`renew`/`expired` (children,
#     leases and deadlines belong to `Supervise.Pool`), and lib/supervise
#     forks at most once (one primitive makes the solver worker and every
#     one-answer child); no
#     lib/supervise source mentions `WNOHANG`, `temp_file` or `.res`,
#     and no lib/service source `WNOHANG`, `waitpid`, `outbox` or
#     `Unix.pipe`, so no polled result-file handoff comes back;
# 11. step clocks are wall-clock spans — no lib/certificates or
#     lib/advect source mentions `Sys.time`, whose CPU seconds of this
#     process miss the work a supervised solve does in its worker;
# 12. one benchmark gate — no BENCH_*.json is tracked, and
#     bench/main.ml has no "ab", "--json" or "--cache-dir" literal and
#     does not name `Bechamel`: bench/main.exe prints the paper's
#     artifacts, and benchsuite/run.sh measures performance;
# 13. one daemon job kind — lib/service/jobqueue.ml declares no payload
#     variant (no `type payload`, no constructor carrying a `Job.spec`
#     or `Bulk.cell_spec`), lib/service/daemon.ml neither calls
#     `Job.run` nor names `Job.storable`, and at most one storability
#     predicate (`let …storable`) is defined under lib/service: a point
#     is a one-cell job, stored by `Bulk.storable`;
# 14. one run-directory front door — outside lib/supervise no lib/ or
#     bin/ .ml file calls `Lock.acquire` or `Config_guard.check` or
#     contains a `not-resumed` literal: the tools open their run dir with
#     `Supervise.open_run`/`claim`, and refuse through
#     `Supervise.check_resume`;
# 15. one owner for the daemon protocol — outside lib/service no lib/ or
#     bin/ .ml file contains the quoted literals "cmd", "bulk-accepted",
#     "cell-result" or "retry_after_s": requests are built and replies
#     read by `Service.Client` alone;
# 16. one solve path — outside lib/sdp, lib/sos and lib/supervise no
#     lib/ .ml file calls `Sdp.solve` or `Sdp.Session.solve`, outside
#     lib/resilient none calls `Sos.solve`, and no lib/certificates or
#     lib/advect source names `Supervise.Pool`: every solve goes
#     `Resilient` → `Supervise.solve_sdp`, which chooses its warm start,
#     and independent items fan out through `Resilient.fan_out`, which
#     counts their work (bin/ and examples/ are exempt);
# 17. one JSON codec — outside lib/substrate no lib/ or bin/ .ml file
#     contains an escaped quote before a colon (`\":`, a hand-built
#     JSON key): every JSON document is a `Substrate.Json.t` printed by
#     `Substrate.Json.to_string`;
# 18. one owner per run directory — no lib/ or bin/ .ml file probes a
#     pid with `Unix.kill <pid> 0` (a run dir is claimed by a kernel
#     lock, not by the liveness of a pid), and lib/supervise's one fork
#     site calls `die_with_parent ()`, so a killed run's children die
#     with it;
# 19. posing orders without polymorphic compare — no lib/poly or
#     lib/sos source mentions `Stdlib.compare`: monomials and decision
#     variables are compared by `Monomial.compare` and `Dvar.compare`,
#     whose orders are part of the cache-key contract (DESIGN.md §3).
# 20. seeded randomness only — no lib/ or bin/ .ml file calls the global
#     generator (`Random.int`, `Random.float`, `Random.self_init`, ...):
#     every draw goes through an explicitly seeded `Random.State`, so the
#     samplers and the level witness search give the same answers at any
#     `-j`, and a killed and resumed atlas writes the same `atlas.json`.
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

# Daemon supervision and atlas counters keep their readers (check 4).
daemon="$repo/lib/service/daemon.ml"
soak="$repo/test/soak_smoke.ml"
if [ -f "$daemon" ]; then
  for field in leases_reclaimed redispatched dead_lettered; do
    grep -qF "(\"$field\", Json.Num" "$daemon" || \
      fail "lib/service/daemon.ml's status no longer emits the $field counter"
    grep -qE "json_int .*\"$field\"" "$soak" 2>/dev/null || \
      fail "test/soak_smoke.ml no longer asserts the $field counter"
  done
fi
atlas="$repo/lib/atlas/atlas.ml"
atlas_smoke="$repo/test/atlas_smoke.ml"
if [ -f "$atlas" ]; then
  for field in certified quarantined; do
    grep -qF "(\"$field\", int " "$atlas" || \
      fail "Atlas.report_json no longer emits the $field counter"
    grep -qE "json_int .*\"$field\"" "$atlas_smoke" 2>/dev/null || \
      fail "test/atlas_smoke.ml no longer asserts the $field counter"
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

# One fork site, one scheduler (check 10).
strays="$(grep -nE 'Unix\.fork' "$repo"/lib/*/*.ml "$repo"/bin/*.ml 2>/dev/null \
  | grep -v "^$repo/lib/supervise/" || true)"
[ -z "$strays" ] || \
  fail "a fork outside lib/supervise (submit to a Supervise.Pool):$(echo " $strays" | sed "s|$repo/||g")"
forks="$(cat "$repo"/lib/supervise/*.ml 2>/dev/null | grep -cE 'Unix\.fork' || true)"
[ "$forks" -le 1 ] || \
  fail "lib/supervise forks at $forks sites (the solver worker and every Child share one)"
strays="$(grep -nE 'WNOHANG|temp_file|\.res\b' "$repo"/lib/supervise/* 2>/dev/null || true)"
[ -z "$strays" ] || \
  fail "a polled result-file handoff in lib/supervise (workers answer over pipes):$(echo " $strays" | sed "s|$repo/||g")"
strays="$( (grep -nE 'WNOHANG|waitpid|outbox|Unix\.pipe' "$repo"/lib/service/*; \
  grep -nE 'Supervise\.Child\.|Heartbeat\.install|Lease\.(grant|renew|expired)' \
  "$repo"/lib/*/*.ml "$repo"/lib/*/*.mli "$repo"/bin/*.ml | grep -v "^$repo/lib/supervise/") 2>/dev/null || true)"
[ -z "$strays" ] || \
  fail "a second scheduler outside lib/supervise (daemon workers and cells are Supervise.Pool items):$(echo " $strays" | sed "s|$repo/||g")"

# Wall-clock step timings (check 11).
strays="$(grep -nE 'Sys\.time' "$repo"/lib/certificates/* "$repo"/lib/advect/* 2>/dev/null || true)"
[ -z "$strays" ] || \
  fail "CPU-time step clocks in lib/certificates or lib/advect (time steps with Unix.gettimeofday):$(echo " $strays" | sed "s|$repo/||g")"

# One benchmark gate (check 12, the tracked-file half is below).
bench="$repo/bench/main.ml"
if [ -f "$bench" ]; then
  strays="$(grep -nE '"(ab|--json|--cache-dir)"|Bechamel' "$bench" || true)"
  [ -z "$strays" ] || \
    fail "a second perf harness in bench/main.ml (measure with benchsuite/run.sh):$(echo " $strays")"
fi

# One daemon job kind (check 13).
service="$repo/lib/service"
if [ -d "$service" ]; then
  strays="$(grep -nE 'type[[:space:]]+payload|[A-Z][A-Za-z_]*[[:space:]]+of[[:space:]]+(Job\.spec|Bulk\.cell_spec)' \
    "$service/jobqueue.ml" 2>/dev/null || true)"
  [ -z "$strays" ] || \
    fail "a second job kind in lib/service/jobqueue.ml (queue Bulk.cell_spec only):$(echo " $strays")"
  strays="$(grep -nE 'Job\.(run|storable)\b' "$service/daemon.ml" 2>/dev/null || true)"
  [ -z "$strays" ] || \
    fail "a point path in lib/service/daemon.ml (run and store every job as a cell):$(echo " $strays")"
  preds="$(grep -nE '^let[[:space:]]+([a-z_]*_)?storable\b' "$service"/*.ml 2>/dev/null || true)"
  [ "$(printf '%s' "$preds" | grep -c .)" -le 1 ] || \
    fail "more than one storability predicate under lib/service:$(echo " $preds" | sed "s|$repo/||g")"
fi

# One run-directory front door (check 14).
strays="$(grep -nE 'Lock\.acquire|Config_guard\.check|not-resumed' "$repo"/lib/*/*.ml \
  "$repo"/bin/*.ml 2>/dev/null | grep -v "^$repo/lib/supervise/" || true)"
[ -z "$strays" ] || \
  fail "a run dir opened outside Supervise.open_run/claim:$(echo " $strays" | sed "s|$repo/||g")"

# One owner for the daemon protocol (check 15).
strays="$(grep -nE '"(cmd|bulk-accepted|cell-result|retry_after_s)"' "$repo"/lib/*/*.ml \
  "$repo"/bin/*.ml 2>/dev/null | grep -v "^$repo/lib/service/" || true)"
[ -z "$strays" ] || \
  fail "daemon protocol messages outside lib/service (call Service.Client):$(echo " $strays" | sed "s|$repo/||g")"

# One solve path (check 16).
strays="$( (grep -nE 'Sdp\.(Session\.)?solve\b' "$repo"/lib/*/*.ml \
    | grep -vE "^$repo/lib/(sdp|sos|supervise)/"; \
  grep -nE 'Sos\.solve\b' "$repo"/lib/*/*.ml | grep -v "^$repo/lib/resilient/"; \
  grep -nE 'Supervise\.Pool' "$repo"/lib/certificates/* "$repo"/lib/advect/*) 2>/dev/null || true)"
[ -z "$strays" ] || \
  fail "a second solve path (solve through Resilient, fan out with Resilient.fan_out):$(echo " $strays" | sed "s|$repo/||g")"

# One JSON codec (check 17).
strays="$(grep -nF '\":' "$repo"/lib/*/*.ml "$repo"/bin/*.ml 2>/dev/null \
  | grep -v "^$repo/lib/substrate/" || true)"
[ -z "$strays" ] || \
  fail "hand-built JSON outside lib/substrate (build a Substrate.Json.t):$(echo " $strays" | sed "s|$repo/||g")"

# One owner per run directory (check 18).
strays="$(grep -nE 'Unix\.kill[[:space:]]+[^[:space:]]+[[:space:]]+0\b' "$repo"/lib/*/*.ml \
  "$repo"/bin/*.ml 2>/dev/null || true)"
[ -z "$strays" ] || \
  fail "a pid liveness probe (claim a run dir with Supervise.Lock):$(echo " $strays" | sed "s|$repo/||g")"
grep -A3 'Unix\.fork' "$repo"/lib/supervise/*.ml 2>/dev/null | grep -q 'die_with_parent ()' || \
  fail "lib/supervise's fork site does not call die_with_parent (): a killed run would leave its children running"

# Posing orders without polymorphic compare (check 19).
strays="$(grep -nF 'Stdlib.compare' "$repo"/lib/poly/* "$repo"/lib/sos/* 2>/dev/null || true)"
[ -z "$strays" ] || \
  fail "polymorphic compare in lib/poly or lib/sos (use Monomial.compare / Dvar.compare):$(echo " $strays" | sed "s|$repo/||g")"

# Seeded randomness only (check 20).
strays="$(grep -nE 'Random\.' "$repo"/lib/*/*.ml "$repo"/bin/*.ml 2>/dev/null \
  | sed -E 's/Random\.State\b//g' | grep -E 'Random\.' || true)"
[ -z "$strays" ] || \
  fail "the global Random generator in lib/ or bin/ (draw from a seeded Random.State):$(echo " $strays" | sed "s|$repo/||g")"

if command -v git >/dev/null 2>&1; then
  root="$(git rev-parse --show-toplevel 2>/dev/null || true)"
  if [ -n "$root" ]; then
    tracked="$(git -C "$root" ls-files _build | head -n 1)"
    [ -z "$tracked" ] || fail "build artifacts are tracked: $tracked"
    # No tracked BENCH_*.json (check 12).
    benches="$(git -C "$root" ls-files 'BENCH_*.json')"
    [ -z "$benches" ] || \
      fail "tracked BENCH_*.json (measure with benchsuite/run.sh instead): $(echo $benches)"
    # Solver-core changes need benchmark evidence (check 7): pending
    # edits under lib/sdp, lib/linalg, lib/poly, lib/sos, lib/certificates
    # or lib/advect come with an EXPERIMENTS.md change whose added
    # lines record a `benchsuite/run.sh ab` pair.
    pending="$(git -C "$root" diff --name-only HEAD -- 2>/dev/null || true)"
    if printf '%s\n' "$pending" | grep -qE '^lib/(sdp|linalg|poly|sos|certificates|advect)/'; then
      git -C "$root" diff HEAD -- EXPERIMENTS.md 2>/dev/null | grep '^+[^+]' \
        | grep -qE 'benchsuite/run\.sh ab [^ ]+ [^ ]+' || \
        fail "lib/sdp, lib/linalg, lib/poly, lib/sos, lib/certificates or lib/advect changed without an EXPERIMENTS.md record of a 'benchsuite/run.sh ab OLD NEW' pair"
    fi
  fi
fi

echo "check_hygiene: OK"
