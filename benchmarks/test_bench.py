"""Self-tests of the benchmark: tracer coverage, count repeatability, oracles.

    python3 -m pytest -q benchmarks/test_bench.py

The traced runs spawn child interpreters like the benchmark does; the whole
file takes about half a minute.
"""

import contextlib
import io
import json
import os
import sys

import pytest

import run
import workloads

sys.path.insert(0, run.SRC)

# Per-layer counts that must be non-zero on the workload that is the main
# user of that layer or function (see README.md, "Layers and metrics").
MAIN_USER = {
    "verify": (
        "verify.calls", "sampling.calls", "nonlocality.chsh_bruteforce.calls",
    ),
    "sweep-wave-detector": (
        "states.calls", "states.tensor.calls", "states.eig_hermitian.calls",
        "channels.measure_select_joint.calls", "nonlocality.calls",
        "nonlocality.correlation_matrix.calls", "nonlocality.concurrence.calls",
        "experiments.calls", "experiments.wave_detector_run.calls", "io.write_csv.calls",
        "kernel.kron_calls",
    ),
    "sweep-dce": (
        "measures.calls", "measures.tsallis_entropy.calls", "measures.wavelike_info.calls",
        "measures.particlelike_info.calls", "experiments.dce_analyze.calls",
        "kernel.eig_calls",
    ),
    "measures-corpus": (
        "channels.calls", "channels.dephase.calls", "states.validate_density.calls",
        "io.calls", "io.parse_state.calls", "io.dumps.calls", "cli.calls",
        "cli.build_parser.calls", "kernel.einsum_calls",
    ),
}


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.fixture(scope="module")
def traced():
    # A tiny budget still runs one untraced and one traced pass.
    return {name: run.run_workload(name, seed=3, seconds=0.1, trace=True)
            for name in workloads.WORKLOADS}


def test_tracer_rebinds_every_reference_and_restores_them():
    import waveparticle
    from tracer import Tracer

    before = waveparticle.verify.CHECKS[0]
    tracer = Tracer().install()
    try:
        assert tracer.leftover() == []
        assert waveparticle.verify.CHECKS[0] is not before
        assert waveparticle.cli.dephase is waveparticle.channels.dephase
        assert waveparticle.dephase is waveparticle.channels.dephase
        waveparticle.ReferenceObservable.computational(2)
        assert tracer.calls["channels.ReferenceObservable.computational"] == 1
        assert tracer.calls["channels.ReferenceObservable.__init__"] == 1
    finally:
        tracer.uninstall()
    assert waveparticle.verify.CHECKS[0] is before
    assert not hasattr(waveparticle.channels.dephase, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_declared_metric(traced, workload):
    result = traced[workload]
    assert result["failed"] == 0, result["info"]["failures"]
    assert result["info"]["leftover_bindings"] == []
    assert sorted(result["metrics"]) == sorted(_declared("per_layer"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_layer_is_called_by_its_main_user(traced, workload):
    metrics = traced[workload]["metrics"]
    missing = [name for name in MAIN_USER[workload] if metrics[name][0] == 0]
    assert missing == []


def test_every_verify_check_is_timed(traced):
    metrics = traced["verify"]["metrics"]
    assert all(metrics[f"verify.{check}.s"][0] > 0 for check in run.VERIFY_CHECKS)


def test_kernel_counts_repeat_across_runs(traced):
    again = run.run_workload("sweep-wave-detector", seed=3, seconds=0.1, trace=True)
    first = traced["sweep-wave-detector"]
    kernel = [k for k in first["metrics"] if k.startswith("kernel.")]
    assert [first["metrics"][k] for k in kernel] == [again["metrics"][k] for k in kernel]
    assert again["info"]["counts_repeat"]


def _run_item(item, workdir):
    import waveparticle.cli as cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(item.argv) == 0
        csv_text = None
        if item.csv_name:
            with open(item.csv_name, encoding="utf-8") as fh:
                csv_text = fh.read()
    finally:
        os.chdir(cwd)
    return out.getvalue(), csv_text


@pytest.mark.parametrize("workload", ["sweep-dce", "sweep-wave-detector", "measures-corpus"])
def test_oracles_accept_real_output_and_reject_a_perturbed_one(tmp_path, workload):
    items = workloads.build(workload, 5, str(tmp_path))
    for item in items[:2] + items[-2:]:
        stdout, csv_text = _run_item(item, str(tmp_path))
        assert item.check(stdout, csv_text) is None
        if csv_text is not None:
            header, first, *rest = csv_text.splitlines()
            cells = first.split(",")
            cells[-2] = repr(float(cells[-2]) + 1e-6)
            bad = "\n".join([header, ",".join(cells), *rest])
            assert item.check(stdout, bad) is not None
        else:
            payload = json.loads(stdout)
            payload["wavelike"] += 1e-6
            assert item.check(json.dumps(payload), None) is not None


def test_verify_oracle_counts_failures():
    report = {"checks": [{"name": f"c{i}", "passed": i != 3} for i in range(14)],
              "passed": False, "failures": 1}
    assert workloads.check_verify(json.dumps(report), None) is not None
    report["checks"][3]["passed"], report["passed"], report["failures"] = True, True, 0
    assert workloads.check_verify(json.dumps(report), None) is None
