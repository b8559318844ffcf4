"""CI gate: prefix queries must beat the direct path at the largest scale.

Reads ``BENCH_provider.json`` (written by ``bench_provider_query.py``) and
fails when, at the largest ``ns_scale`` point, ``prefix_cold`` is not at
least :data:`MARGIN` times faster than ``direct``, or the non-aligned
``arbitrary_prefix_cold`` (prefix rows plus raw head/tail fragments) is not
at least :data:`MARGIN` times faster than ``arbitrary_direct``. The margin is deliberately
generous — the point is a cheap sanity gate catching a prefix path that
silently fell back to streaming (or a build regression that made the tables
useless), not a precise performance SLO; the benchmark JSON artifact carries
the real numbers.

Usage::

    python benchmarks/check_prefix_gate.py [BENCH_provider.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: prefix_cold must be at least this many times faster than direct.
MARGIN = 1.5

#: (prefix row, direct row) pairs gated at the largest scale point.
PAIRS = (
    ("prefix_cold", "direct"),
    ("arbitrary_prefix_cold", "arbitrary_direct"),
)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = Path(args[0]) if args else Path("BENCH_provider.json")
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"prefix gate: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    rows = payload.get("ns_scale", [])
    if not rows:
        print(f"prefix gate: {path} has no ns_scale rows", file=sys.stderr)
        return 1
    largest = max(row["n_windows"] for row in rows)
    at_largest = {
        row["backend"]: row["seconds"]
        for row in rows
        if row["n_windows"] == largest
    }
    missing = {name for pair in PAIRS for name in pair} - set(at_largest)
    if missing:
        print(
            f"prefix gate: ns_scale rows at ns={largest} are missing "
            f"{sorted(missing)}", file=sys.stderr,
        )
        return 1
    failed = False
    for prefix_name, direct_name in PAIRS:
        prefix = at_largest[prefix_name]
        direct = at_largest[direct_name]
        speedup = direct / prefix if prefix > 0 else float("inf")
        verdict = "OK" if speedup >= MARGIN else "FAIL"
        failed = failed or speedup < MARGIN
        print(
            f"prefix gate [{verdict}]: at ns={largest}, {prefix_name} "
            f"{prefix * 1e3:.2f} ms vs {direct_name} {direct * 1e3:.2f} ms "
            f"({speedup:.1f}x, required >= {MARGIN}x)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
