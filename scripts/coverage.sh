#!/usr/bin/env bash
# coverage.sh — coverage gate for the packages the differential-validation
# work depends on. The prefetch designs and the reference oracle are the two
# places a silent coverage regression would let an equivalence bug slip past
# CI, so each has a hard floor.
#
# Coverage is measured across every test package that exercises them
# (-coverpkg), because the designs are deliberately driven from three
# directions: their own unit tests, the timing simulator's integration tests,
# and the differential harness. Profiles from multiple test binaries repeat
# blocks, so the per-package rollup dedups blocks by position, keeping the
# max count.
#
# Usage: scripts/coverage.sh [profile-out]
set -euo pipefail
cd "$(dirname "$0")/.."

# Floors, in percent. Measured headroom at introduction: prefetch 74.6,
# oracle 82.0, service 86.8, httpx 100, telemetry 95.4, resultstore 86.1,
# worker 91.7. The prefetch floor was raised to 90 once its designs shared
# their BTB front, fetch-directed walk and temporal stream (measured 95.6
# then), so a shared part cannot silently lose its tests.
# Raise these as coverage grows; never lower them to make a red build green.
PREFETCH_FLOOR=90
ORACLE_FLOOR=78
SERVICE_FLOOR=70
HTTPX_FLOOR=80
TELEMETRY_FLOOR=80
RESULTSTORE_FLOOR=80
WORKER_FLOOR=70

profile="${1:-cover.out}"

go test -coverprofile="$profile" \
  -coverpkg=dnc/internal/prefetch,dnc/internal/oracle \
  ./internal/prefetch/ ./internal/oracle/ ./internal/sim/ ./internal/sim/difftest/

awk -v pf="$PREFETCH_FLOOR" -v of="$ORACLE_FLOOR" '
  NR > 1 {
    split($0, a, " ")
    k = a[1] ":" a[2]
    if (!(k in stmts)) { stmts[k] = a[2]; file[k] = a[1] }
    if (a[3] > count[k]) count[k] = a[3]
  }
  END {
    for (k in stmts) {
      pkg = (file[k] ~ /internal\/oracle\//) ? "oracle" : "prefetch"
      tot[pkg] += stmts[k]
      if (count[k] > 0) cov[pkg] += stmts[k]
    }
    status = 0
    for (p in tot) {
      pct = 100 * cov[p] / tot[p]
      floor = (p == "oracle") ? of : pf
      verdict = (pct >= floor) ? "ok" : "BELOW FLOOR"
      printf "coverage: internal/%-9s %5.1f%% (floor %d%%) %s\n", p, pct, floor, verdict
      if (pct < floor) status = 1
    }
    exit status
  }' "$profile"

# The service layer gets its own profile: its suite is the integration and
# chaos harness (subprocess kills, fault injection), so it runs apart from
# the simulator-coverage matrix above. internal/httpx rides along — it is
# the shared hardened-HTTP helper under every listener: the service API,
# dncworker -metrics-addr and dncbench -http.
svc_profile="${profile%.out}.service.out"

go test -coverprofile="$svc_profile" \
  -coverpkg=dnc/internal/service,dnc/internal/httpx \
  ./internal/service/ ./internal/httpx/

awk -v sf="$SERVICE_FLOOR" -v hf="$HTTPX_FLOOR" '
  NR > 1 {
    split($0, a, " ")
    k = a[1] ":" a[2]
    if (!(k in stmts)) { stmts[k] = a[2]; file[k] = a[1] }
    if (a[3] > count[k]) count[k] = a[3]
  }
  END {
    for (k in stmts) {
      pkg = (file[k] ~ /internal\/httpx\//) ? "httpx" : "service"
      tot[pkg] += stmts[k]
      if (count[k] > 0) cov[pkg] += stmts[k]
    }
    status = 0
    for (p in tot) {
      pct = 100 * cov[p] / tot[p]
      floor = (p == "httpx") ? hf : sf
      verdict = (pct >= floor) ? "ok" : "BELOW FLOOR"
      printf "coverage: internal/%-9s %5.1f%% (floor %d%%) %s\n", p, pct, floor, verdict
      if (pct < floor) status = 1
    }
    exit status
  }' "$svc_profile"

# own_floor PKG FLOOR SUFFIX gates one package on its own test suite alone:
# profile to <profile>.SUFFIX.out, fail below FLOOR percent of statements.
own_floor() {
  local pkg="$1" floor="$2" out="${profile%.out}.$3.out"
  go test -coverprofile="$out" -coverpkg="dnc/$pkg" "./$pkg/"
  awk -v pkg="$pkg" -v floor="$floor" '
    NR > 1 {
      split($0, a, " ")
      k = a[1] ":" a[2]
      if (!(k in stmts)) stmts[k] = a[2]
      if (a[3] > count[k]) count[k] = a[3]
    }
    END {
      for (k in stmts) {
        tot += stmts[k]
        if (count[k] > 0) cov += stmts[k]
      }
      pct = 100 * cov / tot
      verdict = (pct >= floor) ? "ok" : "BELOW FLOOR"
      printf "coverage: %s %5.1f%% (floor %d%%) %s\n", pkg, pct, floor, verdict
      exit (pct < floor) ? 1 : 0
    }' "$out"
}

# The telemetry plane (metric registry, exposition linter, trace recorder,
# Perfetto timelines) is pure library code: /metrics correctness and the
# phase-conservation invariant live entirely in its unit suite, so it gets
# its own profile and floor. The service integration tests drive it again
# end to end, but the floor is on the library's own tests so a gutted unit
# suite cannot hide behind integration coverage.
own_floor internal/telemetry "$TELEMETRY_FLOOR" telemetry

# The column store is the durable result format: its decoder faces
# arbitrary bytes (fuzzed, checksummed, version-pinned), so its floor rides
# on the package's own fuzz-seeded unit/property/golden wall, not on the
# service integration tests that drive it again end to end.
own_floor internal/resultstore "$RESULTSTORE_FLOOR" resultstore

# The worker loop is the client half of the lease plane: its pipeline (slots,
# upload tokens, parked lease calls, revocation and re-registration in
# flight) is pinned by the package's own tests against a scripted control
# plane, so the floor rides on those and not on the service suite that runs
# real workers end to end.
own_floor internal/service/worker "$WORKER_FLOOR" worker
