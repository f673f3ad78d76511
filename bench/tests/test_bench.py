"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

# small traced batches keep the tests quick
TRACE_OPS = {"sweep": 200, "classgroup": 3, "cli": 3}


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def build(name, seed, trace_ops=None):
    wl = run.WORKLOADS[name](seed)
    run.setup(wl)
    if trace_ops:
        wl.trace_ops = trace_ops
    return wl


def run_once(wl):
    """(op times, failed) of one pass."""
    return run.run_pass(wl)


def digest(wl):
    return hashlib.sha256(json.dumps(wl.inputs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_deterministic_per_seed(name):
    assert digest(build(name, 7)) == digest(build(name, 7))
    assert digest(build(name, 7)) != digest(build(name, 8))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_matches_untraced_and_counts_repeat(name):
    counts = []
    for _ in range(2):
        metrics, attempted, failed, identical = run.traced(build(name, 3, TRACE_OPS[name]), 3)
        assert identical and failed == 0 and attempted == TRACE_OPS[name]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_traced_run_reports_every_layer_where_it_runs():
    metrics = run.traced(build("sweep", 3, TRACE_OPS["sweep"]), 3)[0]
    assert [k for k in metrics] == [k for k, _ in tracing.PER_LAYER]
    for layer in ("arith", "lattice", "normforms", "forms", "ideals"):
        assert metrics[f"{layer}.self_s"]["value"] > 0
    # two of the three routes search for B; every non-concordant pair is repaired
    assert metrics["forms.composition_b.calls"]["value"] == 2 * TRACE_OPS["sweep"]
    assert (metrics["forms.coprime_equivalent.repairs"]["value"]
            == metrics["forms.coprime_equivalent.calls"]["value"])


def test_tracer_restores_the_library():
    qg = run.import_library()
    before = (qg.forms.reduce_form, qg.ideals.reduce_form, qg.QuadInt.__dict__["__mul__"])
    with tracing.Tracer() as tracer:
        assert qg.ideals.reduce_form is not before[1]
        qg.compose_crt(qg.BinaryForm(2, 1, 3, qg.Discriminant(-23)),
                       qg.BinaryForm(2, 1, 3, qg.Discriminant(-23)))
    assert (qg.forms.reduce_form, qg.ideals.reduce_form, qg.QuadInt.__dict__["__mul__"]) == before
    stats, _ = tracer.summary()
    assert stats["forms.compose_crt"]["calls"] == 1
    assert stats["forms.reduce_form"]["calls"] >= 1


def test_wrong_result_counts_as_failed(monkeypatch):
    wl = build("sweep", 5)
    qg = wl.qg
    wl.ops = [wl.ops[i] for i in range(500)]
    monkeypatch.setattr(qg, "compose_crt", lambda f, g: qg.principal_form(f.disc))
    _, failed = run_once(wl)
    assert 0 < failed < len(wl.ops)


def test_library_exception_counts_as_failed(monkeypatch):
    wl = build("classgroup", 5)
    qg = wl.qg

    def broken(disc):
        raise qg.DomainError("broken on purpose")

    monkeypatch.setattr(qg, "class_group", broken)
    best, failed = run_once(wl)
    assert failed == len(wl.ops)
    assert min(best) > 0


def test_golden_mismatch_counts_as_failed():
    wl = build("cli", 5)
    argv, golden = wl.ops[0]
    wl.ops = [(argv, golden.replace('"ok"', '"ko"'))]
    _, failed = run_once(wl)
    assert failed == 1


def test_measure_sets_up_each_pass_and_keeps_each_ops_fastest_time(monkeypatch):
    wl = run.WORKLOADS["sweep"](5)
    wl.inputs = wl.inputs[:2]
    modules = []
    prepare = wl.prepare

    def spy(qg):
        modules.append(qg)
        prepare(qg)

    monkeypatch.setattr(wl, "prepare", spy)
    result = run.measure(wl, 0.2)
    n = 2 * wl.pairs_per_disc
    assert result.passes >= run.MIN_PASSES and result.failed == 0
    assert len(result.setup_times) == run.SETUPS_PER_PASS * result.passes
    assert len(result.best) == len(wl.ops) == n and result.attempted == n * result.passes
    assert min(result.setup_times) > 0 and 0 < min(result.best) <= max(result.best) < float("inf")
    # every set-up imports the library afresh, so nothing cached carries over
    assert len({id(qg) for qg in modules}) == len(result.setup_times)


def test_times_are_scaled_by_the_runs_calibration():
    result = run.Run()
    ref = run.REFERENCE_CALIBRATION_S
    result.add_pass([0.010], [0.004, 0.002], 0, [2 * ref, 3 * ref])
    result.add_pass([0.030], [0.006, 0.001], 0, [4 * ref, 2 * ref])
    assert list(result.best) == [0.004, 0.001] and result.scale() == 0.5
    metrics = run.untraced(result)[0]
    assert metrics["setup_s"]["value"] == 0.005
    assert metrics["throughput_ops_s"]["value"] == 2 / 0.005 * 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
