#!/usr/bin/env python3
"""Prometheus /metrics exposition checker (CI: no network, no deps).

Parses a text-format (0.0.4) scrape dumped by
`dpstarj-server --selfcheck --metrics-dump FILE` and verifies:
  * every sample line parses (`name{labels} value`) and its metric family
    has both `# HELP` and `# TYPE` comments;
  * counter and histogram sample values are finite and non-negative;
  * every histogram family has a `+Inf` bucket per label set, its bucket
    counts are cumulative (non-decreasing in `le`), and the `+Inf` bucket
    equals the family's `_count`;
  * the core DP-starJ series exist: query lifecycle counters, the
    per-outcome duration histogram, the per-stage histogram, per-tenant
    epsilon gauges, and the HTTP front-door counters.

Usage: check_metrics.py METRICS_FILE [REQUIRED_SERIES ...]
Extra arguments add required metric-family names on top of the built-in
set. Exits non-zero listing every violation.
"""

import math
import re
import sys
from pathlib import Path

# `name{labels} value` / `name value`. Label values may contain escaped
# quotes/backslashes/newlines per the exposition format.
SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*",?)*)\})?'
    r' (\S+)$')
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')

# Metric families GET /metrics must always expose (populated by the
# selfcheck's query burst); see docs/operations.md for the full catalog.
REQUIRED = [
    "dpstarj_queries_submitted_total",
    "dpstarj_queries_completed_total",
    "dpstarj_query_duration_seconds",
    "dpstarj_stage_duration_seconds",
    "dpstarj_tenant_epsilon_total",
    "dpstarj_tenant_epsilon_spent",
    "dpstarj_tenant_epsilon_remaining",
    "dpstarj_http_connections_total",
    "dpstarj_http_requests_total",
    "dpstarj_queue_depth",
    "dpstarj_workload_batches_total",
    "dpstarj_workload_queries_total",
    "dpstarj_workload_cache_skips_total",
    "dpstarj_workload_batch_size",
    "dpstarj_workload_duration_seconds",
    # Profiling subsystem (PR 9). The stage counter families are present in
    # both profiler modes; dpstarj_profiler_mode says which one filled them.
    "dpstarj_profiler_mode",
    "dpstarj_build_info",
    "dpstarj_process_uptime_seconds",
    "dpstarj_stage_cycles_total",
    "dpstarj_stage_instructions_total",
    "dpstarj_stage_llc_misses_total",
    "dpstarj_stage_branch_misses_total",
    "dpstarj_stage_task_clock_ns_total",
    "dpstarj_worker_busy_seconds",
    "dpstarj_worker_tasks",
    "dpstarj_queue_depth_sampled",
    "dpstarj_profile_captures_total",
    "dpstarj_profile_samples_total",
    # Streaming ingest (PR 10): batch/row counters, the service-side apply
    # histogram, the /v1/ingest end-to-end histogram, and the plan-cache
    # extend-vs-recompile gauges.
    "dpstarj_ingest_batches_total",
    "dpstarj_ingest_rows_total",
    "dpstarj_ingest_duration_seconds",
    "dpstarj_ingest_api_duration_seconds",
    "dpstarj_plan_extends",
    "dpstarj_plan_recompiles",
    # Plans' shared join and weight columns: builds vs reuses, and the
    # array extensions that copied instead of appending in place.
    "dpstarj_plan_column_builds",
    "dpstarj_plan_column_reuses",
    "dpstarj_plan_column_copies",
    # Plans' cell layouts: built vs kept on fact rows at a first hit.
    "dpstarj_plan_cell_builds",
    "dpstarj_plan_cell_declines",
]


def family_of(sample_name: str, typed: dict) -> str:
    """Maps a sample name to its metric family (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
        if base and typed.get(base) == "histogram":
            return base
    return sample_name


def parse(text: str):
    """Returns (helped, typed, samples, errors); samples are
    (line_no, name, {label: value}, float)."""
    helped, typed, samples, errors = set(), {}, [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            helped.add(line.split(None, 3)[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 4)
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {line_no}: unparseable sample: {line!r}")
            continue
        name, label_blob, value_str = m.group(1), m.group(2) or "", m.group(3)
        try:
            value = float(value_str)
        except ValueError:
            errors.append(f"line {line_no}: bad value {value_str!r} for {name}")
            continue
        labels = {k: v for k, v in LABEL_RE.findall(label_blob)}
        samples.append((line_no, name, labels, value))
    return helped, typed, samples, errors


def check(text: str, required):
    helped, typed, samples, errors = parse(text)
    families_seen = set()

    # Histogram accounting: family -> non-le label tuple -> {le: count}.
    buckets, counts = {}, {}
    for line_no, name, labels, value in samples:
        family = family_of(name, typed)
        families_seen.add(family)
        if family not in typed:
            errors.append(f"line {line_no}: {name} has no # TYPE comment")
        if family not in helped:
            errors.append(f"line {line_no}: {name} has no # HELP comment")
        kind = typed.get(family)
        if kind in ("counter", "histogram"):
            if not (math.isfinite(value) and value >= 0):
                errors.append(
                    f"line {line_no}: {kind} {name} has value {value}")
        if kind == "histogram" and name.endswith("_bucket"):
            le = labels.get("le")
            if le is None:
                errors.append(f"line {line_no}: {name} bucket without le label")
                continue
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            buckets.setdefault(family, {}).setdefault(key, {})[le] = value
        if kind == "histogram" and name.endswith("_count"):
            key = tuple(sorted(labels.items()))
            counts.setdefault(family, {})[key] = value

    for family, children in buckets.items():
        for key, by_le in children.items():
            if "+Inf" not in by_le:
                errors.append(f"{family}{dict(key)}: no +Inf bucket")
                continue
            finite = sorted((le for le in by_le if le != "+Inf"), key=float)
            ordered = [by_le[le] for le in finite] + [by_le["+Inf"]]
            if any(a > b for a, b in zip(ordered, ordered[1:])):
                errors.append(
                    f"{family}{dict(key)}: bucket counts not cumulative")
            total = counts.get(family, {}).get(key)
            if total is not None and total != by_le["+Inf"]:
                errors.append(
                    f"{family}{dict(key)}: +Inf bucket {by_le['+Inf']} != "
                    f"_count {total}")

    for name in required:
        if name not in families_seen:
            errors.append(f"required metric family missing: {name}")

    return errors, len(samples)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = Path(argv[1])
    if not path.exists():
        print(f"{path}: file not found", file=sys.stderr)
        return 1
    errors, num_samples = check(path.read_text(encoding="utf-8"),
                                REQUIRED + argv[2:])
    for error in errors:
        print(f"{path}: {error}", file=sys.stderr)
    if not errors:
        print(f"{path}: {num_samples} samples ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
