"""Tests of the benchmark itself: inputs, tracing and the printed metrics.

Run from the repository root:  python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# small versions of the real workloads: same code paths, seconds not minutes
TINY = {
    "train-desk": dataclasses.replace(
        workloads.WORKLOADS["train-desk"], steps=3,
        flags=("--arch", "fiw", "--features", "2", "--preset", "desk", "--batch", "4",
               "--d-updates", "2")),
    "probe-sweep": dataclasses.replace(workloads.WORKLOADS["probe-sweep"], values="1,2",
                                       per_code=5),
}


def _tree_digest(root) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "config.txt":  # lexigan records the (differing) directory names
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    a = workloads.prepare(wl, str(tmp_path / "a"), 5)
    b = workloads.prepare(wl, str(tmp_path / "b"), 5)
    c = workloads.prepare(wl, str(tmp_path / "c"), 6)
    assert a.keys() == b.keys()
    da, db, dc = (_tree_digest(tmp_path / x) for x in "abc")
    assert da and da == db
    assert da != dc


def test_tracer_restores_every_rebinding():
    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    tracer = Tracer(full=True).install()
    saved = tracer.rebound()
    assert len(saved) > 30
    assert {attr for _, attr, _ in saved} >= {"conv1d", "backward", "overlap_add", "step",
                                              "train_cycle", "fit_multinomial", "_descend"}
    for owner, attr, orig in saved:
        assert current(owner, attr) is not orig, f"{attr} was not rebound"
    tracer.restore()
    assert tracer.rebound() == []
    for owner, attr, orig in saved:
        assert current(owner, attr) is orig, f"{attr} was not restored"


def _outputs(out_dir) -> dict:
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_outputs_unchanged(tmp_path, name):
    wl = TINY[name]
    inputs = workloads.prepare(wl, str(tmp_path / "inputs"), 3)
    runner = run.Runner(wl, inputs, str(tmp_path), 3, deadline=float("inf"))
    plain = runner.session("full", False)
    traced = runner.session("full", True)
    for rec in (plain, traced):
        assert run.check(wl, rec) == (0, [])
    assert traced["layers"]["spans"] > 0
    a, b = _outputs(tmp_path / "out0"), _outputs(tmp_path / "out1")
    # config.txt names the output directory, which differs by design
    a.pop("config.txt", None)
    b.pop("config.txt", None)
    assert a.keys() == b.keys()
    assert len(a) >= 2
    for key in a:
        assert a[key] == b[key], f"{key} differs with tracing on"


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_printed_metric_is_declared(capsys, name, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    result = run.run(TINY[name], 4, 0, trace)
    assert result["correct"], capsys.readouterr().err
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    printed = capsys.readouterr().out.splitlines()
    assert json.loads(printed[-1]) == json.loads(json.dumps(result))
    names = [line.split()[1] for line in printed if line.startswith("metric ")]
    assert names and set(names) <= set(declared)


def test_benchmark_json_lists_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in
                                                       workloads.WORKLOADS.values()]


def test_descent_pace_takes_the_slow_decile_of_equal_slices():
    import metrics

    even = (2.0, [0.01] * 200)
    assert metrics.descent_excess_s(even) == pytest.approx(0.0, abs=1e-12)
    # a burst that runs a third of the slices 1.6x faster shortens the wall;
    # the pace of the slowest tenth gives the wall the descent has without it
    mixed = [0.016] * 134 + [0.010] * 66
    wall = sum(mixed)
    assert wall + metrics.descent_excess_s((wall, mixed)) == pytest.approx(0.016 * 200)
    short = (0.5, [0.01, 0.02] * 10)  # too few slices: taken as timed
    assert metrics.descent_excess_s(short) == 0.0
