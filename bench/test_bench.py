"""Tests of the benchmark itself: a tiny smoke run and its correctness check."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import build_pool  # noqa: E402

from qroot import Certificate, QuatMatrix, RootDecision  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.POOL_SIZE, workload, 3)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = run.metric_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if workloads.PROBES[workload]:
        assert "known_defects: " in out


def test_timed_pools_hold_no_probe_instances():
    for workload in ("spread", "deep"):
        assert all(inst.defect is None for inst in build_pool(workload, 4, size=9))
        probe = workloads.build_probe(workload, 4)
        assert [inst.defect for inst in probe] == list(workloads.PROBES[workload])
        assert set(workloads.PROBES[workload]) <= set(workloads.DEFECTS)


def test_same_seed_same_inputs():
    one, again, other = (build_pool("deep", s, size=3) for s in (5, 5, 6))
    assert all(np.array_equal(a.b.data, b.b.data) and a.spec == b.spec
               for a, b in zip(one, again))
    assert not all(np.array_equal(a.b.data, b.b.data) for a, b in zip(one, other))


def test_perturbed_root_or_flipped_decision_raises_fail_rate():
    pool = build_pool("pipe", 0, size=8)
    admit = next(inst for inst in pool if inst.expected.exists)
    refuse = next(inst for inst in pool if not inst.expected.exists)
    outputs = {}
    for inst in (admit, refuse):
        _, outputs[inst.index], error = run.solve(inst)
        assert error is None

    def fail_rate(answers):
        tally = run.Tally()
        for inst, out in answers:
            tally.add(run.judge(inst, out))
        return tally.fail_rate

    honest = [(admit, outputs[admit.index]), (refuse, outputs[refuse.index])]
    assert fail_rate(honest) == 0.0

    good = outputs[admit.index]
    perturbed = dataclasses.replace(good, root=QuatMatrix(good.root.data + 1e-4))
    assert run.judge(admit, perturbed) == "RootRejected"
    assert fail_rate([(admit, perturbed), honest[1]]) > 0.0

    flipped_no = RootDecision(False, Certificate("NegativeSignPairing", -1.0, "flipped"))
    flipped_yes = RootDecision(True)
    assert run.judge(admit, flipped_no) == "WrongDecision"
    assert run.judge(refuse, flipped_yes) == "WrongDecision"
    assert fail_rate([(admit, flipped_no), (refuse, flipped_yes)]) == 1.0
