"""Smoke test of the stage benchmark: every workload at tiny sizes.

    python3 -m pytest stagebench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import spans

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run([sys.executable, str(ROOT / "stagebench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 2 * len(run.WORKLOADS)
    for workload, untraced, traced in zip(run.WORKLOADS, results[::2], results[1::2]):
        assert untraced["correct"] and traced["correct"]
        for result in (untraced, traced):
            assert result["failed"] == run.expected_failed(
                workload, result["attempted"], run.SMOKE_SIZES[workload],
                run.params_for(True))
        assert set(untraced["metrics"]) == {name for name, _ in run.END_TO_END}
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        assert list(traced["metrics"]) == [name for name, _ in run.PER_LAYER]


def test_a_function_gone_from_every_site_is_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(spans, "SITES", {
        "retrieval.retrieve": ["qexp.retrieval:no_such_function"],
        "collection.load": ["qexp.collection:InvertedIndex.load"],
    })
    tracer = spans.Tracer()
    from qexp.collection import InvertedIndex
    original = InvertedIndex.__dict__["load"]
    try:
        tracer.install()
    finally:
        InvertedIndex.load = original
    assert tracer.absent == ["retrieval.retrieve"]
    assert tracer.missing_sites == ["qexp.retrieval:no_such_function"]


def test_absent_spans_are_reported_as_absent_not_zero():
    summary = {"spans": {"classifier.training.adam": {"calls": 4, "total_s": 0.5,
                                                      "self_s": 0.5}},
               "layer_self_s": {"classifier.training": 0.5},
               "absent": ["retrieval.retrieve"], "missing_sites": [],
               "retrieve_terms": [], "pairs": 128, "index_resident_mb": 0.0}
    metrics = run.layer_metrics("train", ROOT, {}, [{"trace": summary, "wall_s": 1.1}],
                                [{"wall_s": 1.0}])
    for name in ("retrieval.retrieve_s", "retrieval.retrieve_calls",
                 "retrieval.docs_scored", "retrieval.query_terms"):
        assert metrics[name] == {"value": None, "unit": metrics[name]["unit"],
                                 "absent": True}
    assert metrics["classifier.training.batches"]["value"] == 4
    assert metrics["classifier.training.adam_s"]["value"] == 0.5
    assert metrics["collection.load_s"]["value"] == 0.0
    assert abs(metrics["trace.overhead_pct"]["value"] - 10.0) < 1e-9
