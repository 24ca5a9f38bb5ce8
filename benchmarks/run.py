"""Benchmark runner for the waveparticle command line.

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The package is imported from the
checkout's `src/` in fresh child interpreters; nothing is installed. Each
run generates its inputs from the seed, measures start-up in separate
interpreters, runs the workload for the given seconds in one more child,
checks every output against the oracles in workloads.py and prints, as its
last line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Lines before it report the environment, output digests and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BLAS_THREADS = 1
SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = ("import time, waveparticle.cli; "
              "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")

HOT_FUNCTIONS = (
    "states.eig_hermitian", "states.validate_density", "states.tensor",
    "channels.dephase", "channels.measure_select_joint",
    "measures.tsallis_entropy", "measures.wavelike_info", "measures.particlelike_info",
    "nonlocality.correlation_matrix", "nonlocality.chsh_bruteforce", "nonlocality.concurrence",
    "experiments.wave_detector_run", "experiments.dce_analyze",
    "io.parse_state", "io.dumps", "io.write_csv", "cli.build_parser",
)
# verify check name (as printed) -> the function in verify.CHECKS that runs it.
VERIFY_CHECKS = {
    "01_balanced_state_wavelike_ln2": "check_balanced_state_wavelike",
    "02_recombined_state_binary_entropy": "check_recombined_state_entropy",
    "03_wave_detector_entanglement_nonlocality": "check_wave_detector_entanglement",
    "04_werner_wavelike_activation": "check_werner_activation",
    "05_delayed_choice_closed_forms": "check_delayed_choice_forms",
    "06_complementarity_equality": "check_complementarity",
    "07_klein_bound_sandwich": "check_klein_bound",
    "08_chsh_oracle_agreement": "check_chsh_oracle",
    "09_dephasing_commutator_identity": "check_commutator_identity",
    "10_joint_entropy_theorem": "check_joint_entropy",
    "11_uniform_branch_scaling": "check_uniform_branches",
    "12_measurement_perspectives": "check_measurement_perspectives",
    "13_relational_diagnosis": "check_relational_diagnosis",
    "14_informer_overlap_morphing": "check_morphing_limit",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(cwd: str) -> list[float]:
    """Seconds from spawning an interpreter to `import waveparticle.cli` returning."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        spawned = now()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=cwd, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip()) - spawned)
    return samples


def run_child(items, seconds: float, trace: bool, workdir: str) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"items": [item.spec() for item in items], "seconds": seconds,
                   "trace": trace, "result_path": result_path}, fh)
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                          cwd=workdir, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload child exited {proc.returncode}:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["package_file"]).startswith(SRC + os.sep):
        raise BenchError(f"child imported {result['package_file']}, not the checkout's src/")
    return result


def judge(items, result) -> tuple[int, list[str], dict]:
    """Check every execution; return failures, their reasons and output digests."""
    verdicts = {}
    for index, outputs in enumerate(result["outputs"]):
        for digest, out in outputs.items():
            status = None if out["status"] == 0 else f"exit {out['status']} {out['stderr'].strip()}"
            try:
                detail = items[index].check(out["stdout"], out["csv"])
            except (ValueError, KeyError, TypeError) as exc:
                detail = f"unreadable output: {type(exc).__name__}: {exc}"
            verdicts[index, digest] = "; ".join(filter(None, (status, detail))) or None
    failed = sum(verdicts[index, digest] is not None for index, digest in result["executions"])
    reasons = sorted({f"item {i} ({' '.join(items[i].argv[:2])}): {why}"
                      for (i, _), why in verdicts.items() if why is not None})
    stdout_hash, csv_hash = hashlib.sha256(), hashlib.sha256()
    for outputs in result["outputs"]:
        for out in outputs.values():
            stdout_hash.update(out["stdout"].encode())
            csv_hash.update((out["csv"] or "").encode())
    digests = {"stdout_sha256": stdout_hash.hexdigest(), "csv_sha256": csv_hash.hexdigest(),
               "items_with_varying_output": sum(len(o) > 1 for o in result["outputs"])}
    return failed, reasons, digests


def percentile(values, share: float) -> float:
    """Nearest-rank percentile; with fewer than 1/(1-share) values it is the maximum."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def end_to_end(setup, result) -> dict:
    # Latency of an input is the median of its calls across passes, so the
    # percentiles rank inputs by cost rather than calls by machine noise.
    per_item = [statistics.median(calls) for calls in zip(*result["item_ms"])]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(result["passes"]), "s"),
        "item_p50_ms": (statistics.median(per_item), "ms"),
        "item_p99_ms": (percentile(per_item, 0.99), "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(result, items) -> dict:
    traces = result["pass_traces"]
    first = traces[0]

    def median_of(get):
        return statistics.median(get(t) for t in traces)

    metrics = {}
    for layer in first["layers"]:
        metrics[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (median_of(lambda t: t["layers"][layer]["self_s"]), "s")
    for name in HOT_FUNCTIONS:
        metrics[f"{name}.calls"] = (first["functions"].get(name, {}).get("calls", 0), "count")
        metrics[f"{name}.self_s"] = (
            median_of(lambda t: t["functions"].get(name, {}).get("self_s", 0.0)), "s")
    for kind in ("eig", "kron", "einsum"):
        metrics[f"kernel.{kind}_calls"] = (first["kernels"][kind], "count")
    metrics["kernel.eig_per_item"] = (first["kernels"]["eig"] / len(items), "count")
    for check, function in VERIFY_CHECKS.items():
        key = f"verify.{function}"
        metrics[f"verify.{check}.s"] = (
            median_of(lambda t: t["functions"].get(key, {}).get("total_s", 0.0)), "s")
    overhead = statistics.median(result["traced_passes"]) / statistics.median(result["passes"])
    metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    return metrics


def environment(seed: int) -> dict:
    env = {"seed": seed, "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS,
           "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine()}
    env.update(_cpu_info())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["git_commit"] = _git_commit()
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "waveparticle"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    env["src_sha256"] = digest.hexdigest()
    return env


def _cpu_info() -> dict:
    info = {"cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            fields = {}
            for field in ("level", "type", "size"):
                with open(os.path.join(cache_dir, entry, field), encoding="utf-8") as fh:
                    fields[field] = fh.read().strip()
            info["caches"][f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        pass
    return info


def _git_commit() -> str | None:
    # The benchmark may run in an exported tree; never let git look upward
    # into an unrelated repository.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        items = workloads.build(name, seed, workdir)
        setup = [] if trace else measure_setup(workdir)
        result = run_child(items, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, reasons, digests = judge(items, result)
    attempted = len(result["executions"])
    info = {"workload": name, "items_per_pass": len(items), "passes": len(result["passes"]),
            "item_samples": sum(map(len, result["item_ms"])), "fail_frac": failed / attempted,
            "failures": reasons[:20], **digests}
    if trace:
        info["traced_passes"] = len(result["traced_passes"])
        info["leftover_bindings"] = result["leftover_bindings"]
        info["counts_repeat"] = _counts_repeat(result["pass_traces"])
        metrics = per_layer(result, items)
    else:
        info["setup_samples_s"] = setup
        metrics = end_to_end(setup, result)
    return {"info": info, "attempted": attempted, "failed": failed, "metrics": metrics}


def _counts_repeat(traces) -> bool:
    def counts(t):
        return ({n: f["calls"] for n, f in t["functions"].items()}, t["kernels"])
    return all(counts(t) == counts(traces[0]) for t in traces)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the running child before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "waveparticle", "cli.py")):
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(args.seed)}))
    for name, res in zip(names, runs):
        print(json.dumps({"info": res["info"]}))
        for metric, (value, unit) in res["metrics"].items():
            print(f"{name:<20} {metric:<48} {value:>14.6g} {unit}")
        print(f"{name:<20} {'fail_frac':<48} {res['info']['fail_frac']:>14.6g} "
              f"({res['failed']}/{res['attempted']})")
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {(f"{n}/{m}" if prefix else m): {"value": v, "unit": u}
                    for n, r in zip(names, runs) for m, (v, u) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
