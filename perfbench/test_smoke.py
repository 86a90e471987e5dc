"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced for one second on tiny inputs.
The test checks that each run reports exactly the metrics BENCHMARK.json
names, with their units, and that a wrong reference verdict makes the
correctness check fail.
"""
from __future__ import annotations

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from proctriage.datagen import FeatureProfile  # noqa: E402

TINY = workloads.Sizes(
    fleet_safe=6,
    fleet_sandbox=2,
    bulk_listings=2,
    bulk_rows=FeatureProfile(min=40, max=80, mean=60.0, std=10.0),
    seeded_records=30,
    tree_samples=1920,
    ann_samples=384,
    setup_repeats=1,
    reload_repeats=1,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    outcome = run.run_one(name, seed=1, seconds=1.0, trace=trace, sizes=TINY)
    assert outcome.correct, outcome.problems
    assert outcome.attempted >= 1
    doc = json.loads(run.result_line(outcome, trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    emitted = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], float) for v in doc["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_wrong_reference_verdict_fails_the_run(monkeypatch):
    original = workloads.Service.classify

    def flipped(self, raw_text):
        doc = original(self, raw_text)
        doc["verdict"] = "sandbox" if doc["verdict"] == "safe" else "safe"
        return doc

    monkeypatch.setattr(workloads.Service, "classify", flipped)
    outcome = run.run_one("classify-fleet", seed=1, seconds=1.0, trace=False, sizes=TINY)
    assert not outcome.correct
    assert outcome.failed > 0
    assert any("in-process reference" in p for p in outcome.problems)
    assert json.loads(run.result_line(outcome, False))["correct"] is False
