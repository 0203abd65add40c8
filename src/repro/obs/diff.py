"""``python -m repro.obs diff``: a tolerance-gated metrics comparator.

Compares two metrics artifacts — harness ``{stem}_metrics.json`` files,
telemetry snapshots, flight-recorder dumps, anything made of nested
dicts/lists with numeric leaves — and exits nonzero when a watched
metric regressed beyond tolerance. That exit code is the CI perf
gate: check a baseline in, diff fresh runs against it, and a hot path
that quietly got slower fails the build instead of the next release.

::

    python -m repro.obs diff metrics.json fresh.json \\
        --tolerance 0.25 --watch "*total_s*" --watch "io.read.pages"

Regression direction is configurable: ``--direction up`` (default) flags
increases — right for costs like seconds, pages, candidates; ``down``
flags decreases — right for throughputs and speedups; ``any`` flags both.
Provenance/config stamps are ignored by default (they describe the run,
they aren't performance), and ``--min-base`` suppresses relative-change
noise on near-zero baselines.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys

__all__ = ["flatten", "compare", "main", "DEFAULT_IGNORE"]

#: Key patterns never gated (and not listed): run descriptors, not costs.
DEFAULT_IGNORE = (
    "provenance.*", "*.provenance.*",
    "config.*", "*.config.*",
    "*unix_time*", "*git_sha*", "*pid*", "*cpu_count*",
    "smoke", "*.smoke",
)


def flatten(obj, prefix=""):
    """Numeric leaves of nested dicts/lists as ``{dotted.path: float}``.

    Booleans are skipped (``identical_results`` is a check, not a
    metric); list elements are addressed by index (``sweep.0.build_s``).
    """
    out = {}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = ((str(i), v) for i, v in enumerate(obj))
    elif isinstance(obj, bool) or obj is None:
        return out
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
        return out
    else:
        return out
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        out.update(flatten(value, path))
    return out


def _matches(key, patterns):
    return any(fnmatch.fnmatchcase(key, p) for p in patterns)


def compare(base, current, tolerance=0.25, watch=(), ignore=DEFAULT_IGNORE,
            direction="up", min_base=0.0):
    """Diff two loaded artifacts; returns ``(rows, regressions)``.

    ``rows`` is one record per shared numeric key (plus ``missing`` /
    ``added`` markers for keys present on only one side);
    ``regressions`` is the subset of rows that fail the gate. A key is
    gated when it matches a ``watch`` pattern (all keys when ``watch`` is
    empty), does not match ``ignore``, and ``|base| >= min_base``.
    """
    if direction not in ("up", "down", "any"):
        raise ValueError(f"direction must be up/down/any, got {direction!r}")
    flat_base = flatten(base)
    flat_cur = flatten(current)
    rows = []
    for key in sorted(set(flat_base) | set(flat_cur)):
        if _matches(key, ignore):
            continue
        if key not in flat_cur:
            rows.append({"key": key, "base": flat_base[key],
                         "current": None, "change": None,
                         "status": "missing", "regressed": False})
            continue
        if key not in flat_base:
            rows.append({"key": key, "base": None,
                         "current": flat_cur[key], "change": None,
                         "status": "added", "regressed": False})
            continue
        b, c = flat_base[key], flat_cur[key]
        if b == 0.0:
            change = 0.0 if c == 0.0 else math.inf * (1 if c > 0 else -1)
        else:
            change = (c - b) / abs(b)
        gated = (not watch or _matches(key, watch)) and abs(b) >= min_base
        if not gated:
            regressed = False
        elif direction == "up":
            regressed = change > tolerance
        elif direction == "down":
            regressed = change < -tolerance
        else:
            regressed = abs(change) > tolerance
        rows.append({"key": key, "base": b, "current": c, "change": change,
                     "status": "regressed" if regressed
                     else "ok" if gated else "unwatched",
                     "regressed": regressed})
    return rows, [r for r in rows if r["regressed"]]


def _fmt_change(change):
    if change is None:
        return "-"
    if math.isinf(change):
        return "+inf" if change > 0 else "-inf"
    return f"{change:+.1%}"


def main(argv=None):
    """CLI entry point; returns 1 when any watched metric regressed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Compare two metrics/benchmark JSON files with a "
                    "tolerance gate.",
    )
    parser.add_argument("base", help="baseline JSON file")
    parser.add_argument("current", help="candidate JSON file")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative change (0.25 = 25%%)")
    parser.add_argument("--watch", action="append", default=[],
                        metavar="GLOB",
                        help="gate only keys matching this pattern "
                             "(repeatable; default: every numeric key)")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="GLOB",
                        help="additional key patterns to skip entirely")
    parser.add_argument("--direction", choices=("up", "down", "any"),
                        default="up",
                        help="which way a change counts as a regression "
                             "(up = increases are bad)")
    parser.add_argument("--min-base", type=float, default=0.0,
                        help="skip gating keys whose |baseline| is below "
                             "this (relative noise on tiny values)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full diff as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="print regressions only")
    args = parser.parse_args(argv)

    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)
    ignore = tuple(DEFAULT_IGNORE) + tuple(args.ignore)
    rows, regressions = compare(
        base, current, tolerance=args.tolerance, watch=tuple(args.watch),
        ignore=ignore, direction=args.direction, min_base=args.min_base)

    if args.json:
        print(json.dumps({
            "base": args.base, "current": args.current,
            "tolerance": args.tolerance, "direction": args.direction,
            "rows": rows,
            "regressions": [r["key"] for r in regressions],
        }, indent=2, sort_keys=True))
        return 1 if regressions else 0

    from ..eval.reporting import Table

    shown = regressions if args.quiet else \
        [r for r in rows if r["status"] != "unwatched"]
    if shown:
        table = Table(
            ["key", "base", "current", "change", "status"],
            title=f"obs diff: {args.base} -> {args.current} "
                  f"(tolerance {args.tolerance:.0%}, "
                  f"direction {args.direction})",
        )
        for r in shown:
            table.add(
                r["key"],
                "-" if r["base"] is None else f"{r['base']:g}",
                "-" if r["current"] is None else f"{r['current']:g}",
                _fmt_change(r["change"]), r["status"],
            )
        table.print()
    if regressions:
        print(f"{len(regressions)} metric(s) regressed beyond "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    print(f"no regressions ({sum(r['status'] == 'ok' for r in rows)} "
          f"watched keys within {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
