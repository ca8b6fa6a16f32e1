"""Machine-readable benchmark results and the perf-regression differ.

Every benchmark emits ``benchmarks/out/<name>.json`` alongside its table:
the figure series (the scientific result), the host wall-clock spent
generating it (the perf-trajectory signal), and engine counters (events
processed, wire RPCs, sub-calls, messages/bytes on the simulated wire) that
explain *why* wall-clock moved. This module loads two such result sets and
diffs them:

- a **regression** is a wall-clock increase beyond ``wall_tolerance``
  (host timing is noisy, so the default tolerance is generous);
- a **series drift** is any simulated data point moving beyond
  ``series_rtol`` — simulated series are deterministic, so drift means the
  model or protocol changed, not the host;
- counter changes are reported as context (informational).

Usage::

    python -m repro.bench.compare OLD_DIR NEW_DIR [--wall-tolerance 0.25]

Exit status is 1 if any regression or series drift was flagged, which
makes the differ directly usable as a CI gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

RESULT_SCHEMA_VERSION = 1

#: wall-clock increases below this fraction are considered noise
DEFAULT_WALL_TOLERANCE = 0.25
#: baselines shorter than this many seconds skip the wall-clock ratio test:
#: on sub-second benches scheduler noise alone produces multi-x ratios, so
#: a ratio tripwire only reads signal from durations above the floor
DEFAULT_WALL_FLOOR = 1.0
#: relative tolerance for simulated series values (should be bit-stable)
DEFAULT_SERIES_RTOL = 1e-9


def result_payload(
    name: str,
    figure_id: str,
    series: Iterable[Any],
    wall_clock_s: float,
    counters: dict[str, int] | None = None,
    profile: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the canonical JSON payload for one benchmark result."""
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "name": name,
        "figure_id": figure_id,
        "wall_clock_s": wall_clock_s,
        "counters": dict(counters or {}),
        "profile": dict(profile or {}),
        "series": [
            {"label": s.label, "x": list(s.x), "y": list(s.y)} for s in series
        ],
    }


@dataclass
class Finding:
    """One flagged difference between two result sets."""

    name: str
    kind: str  # "regression" | "improvement" | "series_drift" | "missing" | "counters"
    detail: str
    severity: str = "info"  # "info" | "warn" | "fail"

    def __str__(self) -> str:
        tag = {"info": " ", "warn": "~", "fail": "!"}[self.severity]
        return f"[{tag}] {self.name}: {self.kind}: {self.detail}"


@dataclass
class Comparison:
    """Outcome of diffing two result sets."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        if not self.findings:
            return "no differences flagged"
        return "\n".join(str(f) for f in self.findings)


def load_results(directory: str | Path) -> dict[str, dict[str, Any]]:
    """Load every ``*.json`` benchmark result in a directory, by name."""
    directory = Path(directory)
    if not directory.is_dir():
        # A typo'd baseline path must not read as "every benchmark vanished"
        raise FileNotFoundError(f"result directory {directory} does not exist")
    results: dict[str, dict[str, Any]] = {}
    for path in sorted(directory.glob("*.json")):
        with path.open() as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise json.JSONDecodeError(
                    f"{path}: {exc.msg}", exc.doc, exc.pos
                ) from None
        results[payload.get("name", path.stem)] = payload
    return results


def _series_map(payload: dict[str, Any]) -> dict[str, dict[str, list]]:
    return {s["label"]: s for s in payload.get("series", ())}


def compare_results(
    old: dict[str, dict[str, Any]],
    new: dict[str, dict[str, Any]],
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    series_rtol: float = DEFAULT_SERIES_RTOL,
    wall_floor: float = DEFAULT_WALL_FLOOR,
) -> Comparison:
    """Diff two result sets (as returned by :func:`load_results`)."""
    comparison = Comparison()
    add = comparison.findings.append
    for name in sorted(set(old) | set(new)):
        if name not in new:
            add(Finding(name, "missing", "present in old set only", "warn"))
            continue
        if name not in old:
            add(Finding(name, "missing", "present in new set only", "info"))
            continue
        o, n = old[name], new[name]

        # wall-clock trajectory (skipped below the floor: ratios computed
        # from sub-second baselines are scheduler noise, not regressions)
        ow, nw = o.get("wall_clock_s"), n.get("wall_clock_s")
        if ow and nw and ow >= wall_floor:
            ratio = nw / ow
            if ratio > 1 + wall_tolerance:
                add(
                    Finding(
                        name,
                        "regression",
                        f"wall-clock {ow:.2f}s -> {nw:.2f}s ({ratio:.2f}x)",
                        "fail",
                    )
                )
            elif ratio < 1 / (1 + wall_tolerance):
                add(
                    Finding(
                        name,
                        "improvement",
                        f"wall-clock {ow:.2f}s -> {nw:.2f}s ({ratio:.2f}x)",
                        "info",
                    )
                )

        # simulated series: deterministic, so any drift is a real change
        old_series, new_series = _series_map(o), _series_map(n)
        for label in sorted(set(old_series) | set(new_series)):
            if label not in old_series or label not in new_series:
                add(
                    Finding(
                        name, "series_drift", f"series {label!r} appeared/vanished",
                        "warn",
                    )
                )
                continue
            os_, ns_ = old_series[label], new_series[label]
            if os_["x"] != ns_["x"]:
                add(
                    Finding(
                        name,
                        "series_drift",
                        f"series {label!r} x-axis changed "
                        f"({os_['x']} -> {ns_['x']})",
                        "warn",
                    )
                )
                continue
            if len(os_["y"]) != len(ns_["y"]):
                # same x-axis but a truncated/padded y is data loss, not a
                # re-parameterization: fail, or zip below would hide it
                add(
                    Finding(
                        name,
                        "series_drift",
                        f"series {label!r} y length changed "
                        f"({len(os_['y'])} -> {len(ns_['y'])} points)",
                        "fail",
                    )
                )
                continue
            for x, oy, ny in zip(os_["x"], os_["y"], ns_["y"]):
                scale = max(abs(oy), abs(ny), 1e-30)
                if abs(oy - ny) / scale > series_rtol:
                    add(
                        Finding(
                            name,
                            "series_drift",
                            f"series {label!r} at x={x}: {oy!r} -> {ny!r}",
                            "fail",
                        )
                    )

        # engine counters: context for wall-clock movement
        oc, nc = o.get("counters", {}), n.get("counters", {})
        changed = {
            k: (oc.get(k), nc.get(k))
            for k in sorted(set(oc) | set(nc))
            if oc.get(k) != nc.get(k)
        }
        if changed:
            detail = ", ".join(f"{k}: {a} -> {b}" for k, (a, b) in changed.items())
            add(Finding(name, "counters", detail, "info"))
    return comparison


def compare_dirs(
    old_dir: str | Path,
    new_dir: str | Path,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    series_rtol: float = DEFAULT_SERIES_RTOL,
    wall_floor: float = DEFAULT_WALL_FLOOR,
) -> Comparison:
    """Load and diff two result directories."""
    return compare_results(
        load_results(old_dir),
        load_results(new_dir),
        wall_tolerance=wall_tolerance,
        series_rtol=series_rtol,
        wall_floor=wall_floor,
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line entry: diff two bench output dirs; the exit code is the verdict."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Diff two benchmark result sets and flag regressions.",
    )
    parser.add_argument("old_dir", help="baseline results directory")
    parser.add_argument("new_dir", help="candidate results directory")
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=DEFAULT_WALL_TOLERANCE,
        help="fractional wall-clock increase tolerated before flagging "
        f"(default {DEFAULT_WALL_TOLERANCE})",
    )
    parser.add_argument(
        "--series-rtol",
        type=float,
        default=DEFAULT_SERIES_RTOL,
        help="relative tolerance for simulated series drift "
        f"(default {DEFAULT_SERIES_RTOL})",
    )
    parser.add_argument(
        "--wall-floor",
        type=float,
        default=DEFAULT_WALL_FLOOR,
        help="skip wall-clock comparison when the baseline ran shorter "
        f"than this many seconds (default {DEFAULT_WALL_FLOOR}; sub-second "
        "ratios are scheduler noise)",
    )
    args = parser.parse_args(argv)
    try:
        comparison = compare_dirs(
            args.old_dir,
            args.new_dir,
            wall_tolerance=args.wall_tolerance,
            series_rtol=args.series_rtol,
            wall_floor=args.wall_floor,
        )
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}")
        return 2
    print(comparison.render())
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
