#!/usr/bin/env python3
"""Schema self-test of ``BENCHMARK.json`` and ``perfbench/spec.json``.

``run.py`` calls :func:`check` before every run; ``python3
perfbench/selftest.py`` runs it alone. Raises ``ValueError`` naming the
first problem found.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
BETTER = ("lower", "higher")
LOOPS = ("closed", "open")
#: Outcomes gated by the result object itself rather than a metric;
#: ``None`` marks a printed metric that nothing gates (tails).
RESULT_FIELDS = ("correct", "failed", None)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _keys(obj: dict, keys: set, where: str) -> None:
    _require(isinstance(obj, dict) and set(obj) == keys,
             f"{where}: keys must be exactly {sorted(keys)}, "
             f"got {sorted(obj) if isinstance(obj, dict) else obj!r}")


def check_benchmark(bench: dict) -> None:
    _keys(bench, {"command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"}, "BENCHMARK.json")
    command, paths = bench["command"], bench["paths"]
    _require(1 <= len(command) <= 32 and all(
        isinstance(c, str) and 0 < len(c) <= 200 for c in command),
        "command: 1-32 strings of at most 200 characters")
    _require(1 <= len(paths) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in paths), "paths: 1-16 relative directories")
    seconds = bench["run_seconds"]
    _require(isinstance(seconds, int) and 1 <= seconds <= 60,
             "run_seconds: a whole number from 1 to 60")
    names: set = set()

    def name_ok(name: str, where: str) -> None:
        _require(isinstance(name, str) and bool(NAME.match(name)),
                 f"{where}: bad name {name!r}")
        _require(name not in names, f"{where}: {name!r} used twice")
        names.add(name)

    _require(2 <= len(bench["workloads"]) <= 8, "workloads: 2 to 8")
    for w in bench["workloads"]:
        _keys(w, {"name", "why"}, "workload")
        name_ok(w["name"], "workload")
        _require(0 < len(w["why"]) <= 200 and "\n" not in w["why"],
                 f"workload {w['name']}: why is one line of <= 200 chars")
    _require(1 <= len(bench["end_to_end"]) <= 16, "end_to_end: 1 to 16")
    for m in bench["end_to_end"]:
        _keys(m, {"name", "unit", "better", "bound"}, "end_to_end metric")
        name_ok(m["name"], "end_to_end")
        _require(bool(UNIT.match(m["unit"])), f"{m['name']}: bad unit")
        _require(m["better"] in BETTER, f"{m['name']}: better")
        _require(isinstance(m["bound"], (int, float))
                 and 0 < m["bound"] <= 0.25, f"{m['name']}: bound")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s"
             and setup[0]["better"] == "lower"
             and setup[0]["bound"] == max(m["bound"]
                                         for m in bench["end_to_end"]),
             "setup_s: unit s, lower, and the largest bound")
    _require(1 <= len(bench["per_layer"]) <= 128, "per_layer: 1 to 128")
    for m in bench["per_layer"]:
        _keys(m, {"name", "unit", "better"}, "per_layer metric")
        name_ok(m["name"], "per_layer")
        _require(bool(UNIT.match(m["unit"])), f"{m['name']}: bad unit")
        _require(m["better"] in BETTER, f"{m['name']}: better")


def check_spec(spec: dict, bench: dict) -> None:
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    _require(set(spec["workloads"]) == set(workloads),
             "spec.workloads must describe exactly the BENCHMARK workloads")
    for name, w in spec["workloads"].items():
        _require(w.get("loop") in LOOPS and w.get("rationale")
                 and w.get("unit"), f"spec workload {name}: loop, unit "
                 "and rationale are required")
        _require(("clients" in w) == (w["loop"] == "closed")
                 and ("rates_per_s" in w) == (w["loop"] == "open"),
                 f"spec workload {name}: a closed loop states its clients, "
                 "an open loop its rates")
    _require(set(spec["end_to_end"]) == e2e,
             "spec.end_to_end must define every end-to-end metric")
    for name, definition in spec["end_to_end"].items():
        _require(set(definition) in ({"all"}, set(workloads)),
                 f"end-to-end {name}: define it for all workloads")
    for name, r in spec["reported"].items():
        _require(bool(NAME.match(name)) and r["workload"] in workloads
                 and bool(UNIT.match(r["unit"]))
                 and r["better"] in BETTER
                 and (r["gated_by"] in e2e
                      or r["gated_by"] in RESULT_FIELDS),
                 f"reported metric {name}: workload, unit, better, gated_by")
    layer = {m["name"] for m in bench["per_layer"]}
    _require(set(spec["per_layer"]) == layer,
             "spec.per_layer must describe exactly the BENCHMARK per-layer "
             f"metrics; differ in {sorted(set(spec['per_layer']) ^ layer)}")
    for name, m in spec["per_layer"].items():
        _require(bool(m.get("measures")), f"{name}: measures")
        moved = set()
        for move in m["moves"]:
            target = move["metric"]
            _require(target in e2e or target in spec["reported"],
                     f"{name}: moves unknown metric {target!r}")
            _require(move["workload"] in workloads,
                     f"{name}: unknown workload {move['workload']!r}")
            _require(target in e2e
                     or spec["reported"][target]["workload"]
                     == move["workload"],
                     f"{name}: {target} is not a {move['workload']} metric")
            moved.add(move["workload"])
        _require(set(m["flat"]) <= set(workloads) and not
                 set(m["flat"]) & moved,
                 f"{name}: flat workloads must be known and not moved")


def check(root: Path) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    spec = json.loads((root / "perfbench" / "spec.json").read_text("utf-8"))
    check_benchmark(bench)
    check_spec(spec, bench)
    return {"benchmark": bench, "spec": spec}


if __name__ == "__main__":
    check(Path(__file__).resolve().parent.parent)
    print("BENCHMARK.json and perfbench/spec.json: ok")
    sys.exit(0)
