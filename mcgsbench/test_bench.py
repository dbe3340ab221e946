"""Tests of the benchmark itself, on tiny workloads.

Run from the root of a checkout with `python3 -m pytest mcgsbench -q`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracer_mod
from tracer import Tracer
from workloads import NimMatch, NimSolve, TicTacToePlain

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = [NimSolve(piles=(1, 2, 4)), TicTacToePlain(simulations=300),
        NimMatch(openings=2, evaluations=32)]


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_are_valid():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for kind in ("end_to_end", "per_layer")
               for m in SPEC[kind])
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_every_metric_is_emitted(workload, trace):
    result, report = run.run(workload, seed=3, seconds=0, trace=trace)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert report["failed_frac"] == 0.0 and report["fingerprint"]
    assert {"python", "cpu", "nproc", "seed", "seconds"} <= set(report)
    # The traced repetition left no wrapper behind.
    mcgs = sys.modules["mcgs"]
    assert mcgs.search.explore is mcgs.explore
    assert mcgs.arena.SearchEngine is mcgs.search.SearchEngine is mcgs.SearchEngine


def test_self_time_arithmetic(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: now[0])
    tracer = Tracer()

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 2.0
        traced_inner()

    traced_inner = tracer.wrap("layer.inner", inner)
    tracer.wrap("layer.outer", outer)()
    summary = tracer.summary()
    assert summary["calls"] == {"layer.inner": 2, "layer.outer": 1}
    assert summary["self_s"] == {"layer.inner": 10.0, "layer.outer": 3.0}
    assert summary["spans"] == 3


class WrongAnswer(NimSolve):
    """Reports a move the oracle rejects: every repetition must fail."""

    def run(self, mcgs, inputs, pause):
        engine, result = super().run(mcgs, inputs, pause)
        return engine, dataclasses.replace(result, selected_action=-1)


def test_wrong_answer_counts_in_failed_frac():
    result, report = run.run(WrongAnswer(piles=(1, 2, 4)), seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert report["failed_frac"] == 1.0
    assert any("selected action -1" in m for m in report["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "mcgsbench", tmp_path / "mcgsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "mcgsbench/run.py", "--workload", "nim-solve",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
