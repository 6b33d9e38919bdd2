#!/usr/bin/env python3
"""Validate a Prometheus text-exposition page (rqld's /metrics).

Usage: validate_openmetrics.py [--expect GOLDEN] [FILE]

Reads FILE (or stdin) and checks the structural invariants a scraper
relies on. Stdlib-only (CI runners have no prometheus_client):

  - every sample belongs to a metric family declared by a preceding
    `# TYPE` line, and every family carries a `# HELP` line
  - family names are legal ([a-zA-Z_:][a-zA-Z0-9_:]*) and declared once
  - counter samples end in `_total`
  - histogram families expose `_bucket{le=...}`, `_sum` and `_count`
    series; bucket `le` bounds strictly increase, cumulative counts are
    non-decreasing, and the `+Inf` bucket equals `_count`
  - sample values parse as numbers

With `--expect GOLDEN` (tests/golden/metrics_v1.txt), every family
declared in the golden's `== /metrics` section must also be declared
in FILE, with the same TYPE, so a scrape that silently lost a registry
fails loudly. Exits non-zero with a line-qualified message on the
first violation.
"""

import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name, optional {labels}, value — labels are never nested, so a
# non-greedy brace match is enough for exposition we generate ourselves.
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*?\})?\s+(\S+)$")


def fail(lineno, msg):
    sys.exit(f"openmetrics invalid at line {lineno}: {msg}")


def parse_value(raw, lineno):
    if raw == "+Inf":
        return math.inf
    try:
        return float(raw)
    except ValueError:
        fail(lineno, f"unparseable sample value {raw!r}")


def family_of(sample_name, types):
    """Map a sample series name back to its declared family."""
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in types:
            return sample_name[: -len(suffix)]
    return None


def golden_families(path):
    """`# TYPE` declarations of the golden file's `== /metrics` section."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    try:
        start = lines.index("== /metrics") + 1
    except ValueError:
        sys.exit(f"{path}: no '== /metrics' section")
    families = {}
    for line in lines[start:]:
        if line.startswith("== "):
            break
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            families[name] = kind
    return families


def main():
    args = sys.argv[1:]
    expected = {}
    if args[:1] == ["--expect"] and len(args) >= 2:
        expected = golden_families(args[1])
        args = args[2:]
    if len(args) > 1 or args[:1] == ["--expect"]:
        sys.exit(__doc__.strip().splitlines()[2])
    if args:
        with open(args[0], encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()

    types = {}  # family -> kind
    helps = set()
    # histogram family -> list of (le, cumulative, lineno)
    buckets = {}
    counts = {}  # histogram family -> (_count value, lineno)
    samples = 0

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                fail(lineno, "HELP line without text")
            helps.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                fail(lineno, f"malformed TYPE line: {line!r}")
            name, kind = parts[2], parts[3]
            if not NAME_RE.match(name):
                fail(lineno, f"illegal metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                fail(lineno, f"unknown metric type {kind!r}")
            if name in types:
                fail(lineno, f"duplicate TYPE declaration for {name}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        m = SAMPLE_RE.match(line)
        if not m:
            fail(lineno, f"unparseable sample line: {line!r}")
        name, labels, raw = m.groups()
        value = parse_value(raw, lineno)
        samples += 1
        family = family_of(name, types)
        if family is None:
            fail(lineno, f"sample {name!r} has no preceding TYPE declaration")
        kind = types[family]
        if kind == "counter" and not name.endswith("_total"):
            fail(lineno, f"counter sample {name!r} does not end in _total")
        if kind == "counter" and value < 0:
            fail(lineno, f"negative counter {name!r} = {value}")
        if kind == "histogram":
            if name.endswith("_bucket"):
                lm = re.search(r'le="([^"]*)"', labels or "")
                if not lm:
                    fail(lineno, f"histogram bucket without le label: {line!r}")
                le = parse_value(lm.group(1), lineno)
                buckets.setdefault(family, []).append((le, value, lineno))
            elif name.endswith("_count"):
                counts[family] = (value, lineno)

    for family, series in buckets.items():
        prev_le, prev_cum = -math.inf, -1
        for le, cum, lineno in series:
            if le <= prev_le:
                fail(lineno, f"{family}: le={le} does not increase past {prev_le}")
            if cum < prev_cum:
                fail(lineno, f"{family}: cumulative count {cum} decreased from {prev_cum}")
            prev_le, prev_cum = le, cum
        if prev_le != math.inf:
            fail(series[-1][2], f"{family}: no +Inf bucket")
        if family not in counts:
            fail(series[-1][2], f"{family}: no _count series")
        count, lineno = counts[family]
        if prev_cum != count:
            fail(lineno, f"{family}: +Inf bucket {prev_cum} != _count {count}")

    missing_help = set(types) - helps
    if missing_help:
        sys.exit(f"openmetrics invalid: families without HELP: {sorted(missing_help)}")
    for name, kind in expected.items():
        if name not in types:
            sys.exit(f"openmetrics invalid: expected family {name} missing")
        if types[name] != kind:
            sys.exit(f"openmetrics invalid: {name} has TYPE {types[name]}, expected {kind}")
    if samples == 0:
        sys.exit("openmetrics invalid: no samples")
    print(
        f"openmetrics OK: {len(types)} families, {samples} samples, "
        f"{len(buckets)} histogram(s)"
    )


if __name__ == "__main__":
    main()
