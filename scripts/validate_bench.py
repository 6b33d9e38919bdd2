#!/usr/bin/env python3
"""Validate BENCH_*.json bench artifacts.

Usage: validate_bench.py [FILE...]

With no arguments, validates every BENCH_*.json in the current
directory. Stdlib-only (CI runners have no jsonschema package). Checks,
for every artifact:

  - well-formed JSON object, no duplicate keys
  - schema_version present, equal to the supported version, and the
    *first* key of the object (experiment second) — artifacts are
    versioned before they are anything else, so a reader can dispatch
    on the opening bytes
  - experiment present and known
  - the experiment's required keys present with the right JSON types,
    appearing in the artifact in spec order (new keys may interleave,
    but the required ones form an in-order subsequence — dashboards
    diff these files textually)
  - identical_results is true (a bench that changed answers is a bug,
    not a regression)

Acceptance thresholds (speedup targets) are *reported*, not enforced:
they are workload- and machine-sensitive, and the markdown already
flags them OK/UNEXPECTED. Exits non-zero with a path-qualified message
on the first structural violation.
"""

import glob
import json
import sys

SUPPORTED_SCHEMA_VERSION = 2

NUM = (int, float)

# experiment -> {key: required type(s)}
REQUIRED = {
    "memo_cache": {
        "snapshots": int,
        "nomemo_qq_wall_ms": NUM,
        "cold_qq_wall_ms": NUM,
        "warm_qq_wall_ms": NUM,
        "warm_speedup_vs_nomemo": NUM,
        "warm_hit_rate": NUM,
        "identical_results": bool,
        "memo_hits": int,
        "memo_misses": int,
        "phases": dict,
    },
    "prune_scan": {
        "rows": int,
        "snapshots": int,
        "lanes": list,
        "delta_1pct": dict,
        "speedup_at_1pct": NUM,
        "identical_results": bool,
        "pass": bool,
    },
    "repl_scaleout": {
        "rows": int,
        "backlog_snapshots": int,
        "rounds_per_node": int,
        "followers": int,
        "seed_ms": NUM,
        "leader_qps": NUM,
        "follower_qps": list,
        "aggregate_qps": NUM,
        "speedup": NUM,
        "identical_results": bool,
        "pass": bool,
    },
    "standing_maintenance": {
        "rows": int,
        "backlog_snapshots": int,
        "churn_rounds": int,
        "seed_ms": NUM,
        "batch_total_ms": NUM,
        "incremental_total_ms": NUM,
        "speedup": NUM,
        "pages_scanned": int,
        "pages_skipped": int,
        "rows_pushed": int,
        "identical_results": bool,
        "pass": bool,
    },
}

PRUNE_LANE = {
    "selectivity": str,
    "threshold": int,
    "baseline_wall_ms": NUM,
    "pruned_wall_ms": NUM,
    "speedup": NUM,
    "pagelog_reads_baseline": int,
    "pagelog_reads_pruned": int,
    "pages_pruned": int,
    "identical_results": bool,
}


def fail(path, msg):
    sys.exit(f"bench artifact invalid at {path}: {msg}")


class OrderedObj(dict):
    """A dict that remembers raw key order and rejects duplicates."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.key_order = [k for k, _ in pairs]
        if len(self.key_order) != len(set(self.key_order)):
            dupes = sorted({k for k in self.key_order if self.key_order.count(k) > 1})
            raise ValueError(f"duplicate keys: {dupes}")


def check_key_order(obj, spec, path):
    """Required keys must appear in spec order (as a subsequence)."""
    order = getattr(obj, "key_order", list(obj))
    positions = {k: i for i, k in enumerate(order)}
    last = -1
    last_key = None
    for key in spec:
        at = positions.get(key)
        if at is None:
            continue  # presence is check_keys' job
        if at < last:
            fail(path, f"key {key!r} must come after {last_key!r} (spec order)")
        last, last_key = at, key


def check_keys(obj, spec, path):
    for key, typ in spec.items():
        if key not in obj:
            fail(path, f"missing key {key!r}")
        value = obj[key]
        if isinstance(value, bool) and typ is not bool:
            fail(f"{path}.{key}", f"expected {typ}, got bool")
        if not isinstance(value, typ):
            fail(f"{path}.{key}", f"expected {typ}, got {type(value).__name__}")


def validate(name):
    try:
        with open(name, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=OrderedObj)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        fail(name, str(e))
    if not isinstance(doc, dict):
        fail(name, "top level is not an object")
    version = doc.get("schema_version")
    if version != SUPPORTED_SCHEMA_VERSION:
        fail(f"{name}.schema_version", f"expected {SUPPORTED_SCHEMA_VERSION}, got {version!r}")
    order = doc.key_order
    if order[:2] != ["schema_version", "experiment"]:
        fail(name, f"first keys must be schema_version, experiment; got {order[:2]}")
    experiment = doc.get("experiment")
    if experiment not in REQUIRED:
        fail(f"{name}.experiment", f"unknown experiment {experiment!r}")
    check_keys(doc, REQUIRED[experiment], name)
    check_key_order(doc, REQUIRED[experiment], name)
    if not doc["identical_results"]:
        fail(f"{name}.identical_results", "lanes returned different answers")
    if experiment == "repl_scaleout":
        qps = doc["follower_qps"]
        if len(qps) != doc["followers"]:
            fail(f"{name}.follower_qps", f"expected {doc['followers']} entries, got {len(qps)}")
        for i, q in enumerate(qps):
            if isinstance(q, bool) or not isinstance(q, NUM):
                fail(f"{name}.follower_qps[{i}]", f"expected number, got {type(q).__name__}")
    if experiment == "prune_scan":
        if not doc["lanes"]:
            fail(f"{name}.lanes", "empty sweep")
        for i, lane in enumerate(doc["lanes"]):
            if not isinstance(lane, dict):
                fail(f"{name}.lanes[{i}]", "lane is not an object")
            check_keys(lane, PRUNE_LANE, f"{name}.lanes[{i}]")
            check_key_order(lane, PRUNE_LANE, f"{name}.lanes[{i}]")
            if not lane["identical_results"]:
                fail(f"{name}.lanes[{i}]", "pruned lane returned different answers")
    print(f"{name}: OK ({experiment}, schema_version {version})")


def main():
    names = sys.argv[1:] or sorted(glob.glob("BENCH_*.json"))
    if not names:
        sys.exit("validate_bench.py: no BENCH_*.json artifacts found")
    for name in names:
        validate(name)


if __name__ == "__main__":
    main()
