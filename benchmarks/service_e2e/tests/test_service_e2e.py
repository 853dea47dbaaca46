"""The benchmark's own tests: metric coverage, the oracle, the tracer.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/service_e2e/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ServiceOverloaded
from repro.service import DocumentService, DocumentWriter
from service_e2e.driver import WorkloadRun
from service_e2e.oracle import OracleDocument, check_samples, generate_script
from service_e2e.tracer import Tracer
from service_e2e.workloads import WORKLOADS, seed_xml

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "1"


def _run_cli(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "service_e2e" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            SMOKE_SECONDS,
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace):
    result = _run_cli(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_script_depends_only_on_the_seed():
    first = generate_script("hamlet-edit", 3, 200)
    assert first == generate_script("hamlet-edit", 3, 200)
    assert first != generate_script("hamlet-edit", 4, 200)


def test_script_keeps_the_node_count_near_the_seed():
    oracle = OracleDocument(seed_xml())
    seed_nodes = len(oracle)
    for op in generate_script("hamlet-edit", 5, 3000):
        oracle.apply(op)
        assert abs(len(oracle) - seed_nodes) <= seed_nodes // 10


def _short_run() -> WorkloadRun:
    return WorkloadRun("hamlet-edit", 11, 1, ROOT / ".bench_build" / "test")


def test_oracle_catches_a_corrupted_answer(monkeypatch):
    original = DocumentService.query

    def corrupted(self, doc_id, query):
        result = original(self, doc_id, query)
        extra = {"position": 0, "tag": "doc", "label": ""}
        result["matches"] = result["matches"] + [extra]
        return result

    monkeypatch.setattr(DocumentService, "query", corrupted)
    record = _short_run().execute()
    assert any("oracle:" in problem for problem in record.problems)


def test_oracle_catches_a_refused_submit(monkeypatch):
    original = DocumentWriter.submit
    calls = []

    def refuse_tenth(self, op):
        calls.append(op)
        if len(calls) == 10:
            raise ServiceOverloaded("refused on purpose", retry_after=0.0)
        return original(self, op)

    monkeypatch.setattr(DocumentWriter, "submit", refuse_tenth)
    record = _short_run().execute()
    # Later positional ops then meet the wrong document and may fail too.
    assert record.failures["ServiceOverloaded"] == 1
    assert "final served XML differs from the oracle's" in record.problems


def test_check_samples_flags_a_wrong_query_answer():
    ops = generate_script("hamlet-edit", 1, 40)
    oracle = OracleDocument(seed_xml())
    for op in ops[:20]:
        oracle.apply(op)
    positions = oracle.positions()
    line = [positions[id(n)] for n in oracle.order if n.name == "line"]
    sample = {"kind": "query", "version": 20, "query": "Q6", "positions": line}
    assert check_samples(ops, 40, [sample])[1] == []
    sample["positions"] = line[1:]
    assert len(check_samples(ops, 40, [sample])[1]) == 1


def test_tracer_puts_every_original_back():
    tracer = Tracer()
    tracer.install()
    patched = [
        (owner, attr, vars(owner)[attr], original)
        for owner, attr, original in tracer._patches
    ]
    assert patched
    tracer.uninstall()
    for owner, attr, wrapper, original in patched:
        assert wrapper is not original
        assert vars(owner)[attr] is original
