// GENERATED by tools/lint/tmwia_lint.py --write-metric-registry — do not edit.
//
// The canonical inventory of statically-named metrics and profile
// zones. The metric-name-registry lint rule keeps call sites and this
// table in lockstep: a name used but not listed here (or listed but no
// longer used) is a finding, so dashboards and alert rules keyed on
// these strings cannot silently drift from the code. Dynamically
// composed names (per-tenant counters, per-guess zones) are excluded
// by construction and carry allow pragmas at their call sites.
#pragma once

#include <array>
#include <string_view>

namespace tmwia::obs {

inline constexpr std::array<std::string_view, 40> kMetricNames = {
    "anytime",
    "billboard.posts",
    "billboard.reads",
    "billboard.tally_cache_hits",
    "core.fp.branch.large",
    "core.fp.branch.small",
    "core.fp.branch.zero",
    "core.orphans_rescued",
    "core.rselect.calls",
    "core.rselect.probes",
    "core.select.calls",
    "core.select.probes",
    "keep_better",
    "oracle.degraded",
    "oracle.fallback_reads",
    "oracle.max_invocations",
    "oracle.probe_crashes",
    "oracle.probe_failures",
    "oracle.retries",
    "oracle.total_charged",
    "oracle.total_invocations",
    "scheduler.crash_skips",
    "scheduler.idle_probes",
    "scheduler.posts_delayed",
    "scheduler.posts_dropped",
    "scheduler.rounds",
    "scheduler.strategy_exceptions",
    "select",
    "serve.degraded_responses",
    "serve.estimate",
    "serve.recommend",
    "serve.request_us",
    "serve.requests",
    "serve.staleness_epochs",
    "serve.stats",
    "supervisor.benched_rounds",
    "supervisor.quarantined",
    "supervisor.strikes",
    "supervisor.unmet_phases",
    "unknown_d",
};

}  // namespace tmwia::obs
