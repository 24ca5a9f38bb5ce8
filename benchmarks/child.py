"""Run one workload in a fresh interpreter and write the raw measurements.

Usage: python child.py <spec.json>

The spec (written by run.py) lists the items, the time budget and whether
to trace. The working directory holds the item input files; CSV outputs are
written there too. Times are per `cli.main` call and per pass over all items.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import waveparticle
import waveparticle.cli as cli


class Runner:
    """Calls the CLI item by item, keeping one copy of each distinct output."""

    def __init__(self, items):
        self.items = items
        self.outputs = [{} for _ in items]
        self.executions = []  # (item index, output digest) in run order

    def run_pass(self) -> tuple[float, list[float]]:
        clock = time.perf_counter
        times, results = [], []
        start = clock()
        for item in self.items:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    status = cli.main(item["argv"])
                except (Exception, SystemExit) as exc:  # an item failure, not a harness one
                    status = f"raised {type(exc).__name__}: {exc}"
                times.append(clock() - t0)
            results.append((status, out.getvalue(), err.getvalue()))
        wall = clock() - start
        for index, (status, stdout, stderr) in enumerate(results):
            self._record(index, status, stdout, stderr)
        return wall, times

    def _record(self, index, status, stdout, stderr) -> None:
        csv_name = self.items[index]["csv"]
        csv_text = None
        if csv_name is not None and status == 0:
            with open(csv_name, encoding="utf-8") as fh:
                csv_text = fh.read()
        digest = hashlib.sha256(f"{status}\0{stdout}\0{csv_text}".encode()).hexdigest()
        if digest not in self.outputs[index]:
            self.outputs[index][digest] = {"status": status, "stdout": stdout,
                                           "stderr": stderr, "csv": csv_text}
        self.executions.append((index, digest))


def timed_pass(runner, result) -> None:
    wall, times = runner.run_pass()
    result["passes"].append(wall)
    result["item_ms"].append([t * 1e3 for t in times])


def past(deadline: float) -> bool:
    return time.clock_gettime(time.CLOCK_MONOTONIC) >= deadline


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    runner = Runner(spec["items"])
    # One-item warm-up: numpy's lazy imports and first-call caches.
    Runner([spec["items"][0]]).run_pass()
    result = {"package_file": waveparticle.__file__, "passes": [], "item_ms": []}
    deadline = start + spec["seconds"]
    if spec["trace"]:
        from tracer import Tracer

        # Untraced and traced passes alternate, so both see the same machine
        # conditions and their ratio measures the tracer, not the drift.
        tracer = Tracer()
        result["traced_passes"], result["pass_traces"] = [], []
        while True:
            timed_pass(runner, result)
            tracer.install()
            result.setdefault("leftover_bindings", tracer.leftover())
            wall, _ = runner.run_pass()
            tracer.uninstall()
            result["traced_passes"].append(wall)
            result["pass_traces"].append(tracer.snapshot())
            tracer.reset()
            if past(deadline):
                break
    else:
        # Whole passes until the deadline; always at least one.
        timed_pass(runner, result)
        while not past(deadline):
            timed_pass(runner, result)
    result["executions"] = runner.executions
    result["outputs"] = runner.outputs
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
