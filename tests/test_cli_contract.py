"""Command-line contracts that need fresh interpreters.

Each case runs `python -W error -m waveparticle` twice, at the same time and
with different hash seeds. The two runs must print the same bytes and, for a
sweep, write the same CSV bytes: output that depends on dict or set order,
or on anything else that varies between runs, fails here. A sweep's CSV must
also have LF line ends only, one line per grid point after the header, and
every field in the 17-digit form io.FLOAT_FORMAT writes. `verify --json`
must also report all 14 checks, every one passed.
"""

import json
import os
import subprocess
import sys

import pytest

CASES = {
    # 1030 steps cross the 1024-point block boundary
    "sweep-dce": ["sweep", "dce", "--param", "phi", "--start", "0", "--stop", "7",
                  "--steps", "1030", "--bs2-alpha", "0.6", "--q", "1.5"],
    # CHSH and concurrence in closed form from click 0's coherence, and click 1
    # takes them through the local unitary S x S^H
    "sweep-wave-detector": ["sweep", "wave-detector", "--param", "x", "--start", "0",
                            "--stop", "1", "--steps", "1030", "--amp-alpha-re", "0.6",
                            "--amp-beta-im", "0.8"],
    # fields inside the exact kernel's range (1e-6, 1e17) and outside it (below 1e-6)
    "sweep-mzi": ["sweep", "mzi", "--param", "phi", "--start=-1e3", "--stop", "1e3",
                  "--steps", "3001"],
    # Alice's view selects on the pointer marginal
    "alice": ["experiment", "measurement-model", "--click", "1", "--amp-alpha-re", "0.36",
              "--amp-alpha-im", "0.48", "--amp-beta-im", "0.8"],
    # Bob's view: the symmetric premeasurement gives the pointer the quanton's marginal
    "bob": ["experiment", "measurement-model", "--amp-alpha-re", "0.36",
            "--amp-alpha-im", "0.48", "--amp-beta-im", "0.8"],
    # delayed choice from its two branches, at the splitter fully in and phi = pi
    "dce-point": ["experiment", "dce", "--bs2-alpha", "1.5707963267948966",
                  "--phi", "3.141592653589793"],
    # the headline command: all 14 checks, every residual printed in full
    "verify": ["verify", "--json"],
}


def run_twice(argv, tmp_path):
    """stdout and, for a sweep, the CSV bytes of two simultaneous runs."""
    runs, finished = [], []
    try:
        for seed in (1, 2):
            out = tmp_path / f"run{seed}.csv"
            extra = ["--out", str(out)] if argv[0] == "sweep" else []
            env = {**os.environ, "PYTHONHASHSEED": str(seed)}
            process = subprocess.Popen([sys.executable, "-W", "error", "-m", "waveparticle",
                                        *argv, *extra], env=env, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE)
            runs.append((process, out))
        for process, out in runs:
            finished.append((process, out, *process.communicate(timeout=120)))
    finally:
        # a run that hung, or was never waited for, ends with the test
        for process, _ in runs:
            if process.poll() is None:
                process.kill()
            process.wait()
    results = []
    for process, out, stdout, stderr in finished:
        assert (process.returncode, stderr) == (0, b""), stderr.decode()
        results.append((stdout, out.read_bytes() if out.exists() else None, out))
    return results


@pytest.mark.parametrize("name", CASES)
def test_two_runs_give_the_same_bytes(tmp_path, name):
    argv = CASES[name]
    (stdout, csv, out), (stdout_again, csv_again, out_again) = run_twice(argv, tmp_path)
    if argv[0] == "sweep":
        steps = int(argv[argv.index("--steps") + 1])
        assert stdout == f"wrote {steps} rows to {out}\n".encode()
        assert stdout_again == f"wrote {steps} rows to {out_again}\n".encode()
        assert csv == csv_again
        assert b"\r" not in csv
        lines = csv.decode().splitlines()
        assert len(lines) == steps + 1
        fields = [field for line in lines[1:] for field in line.split(",")]
        assert all(field == "%.16e" % float(field) for field in fields), \
            "a field is not in the 17-digit format"
    else:
        assert stdout == stdout_again
        payload = json.loads(stdout)
        if name == "bob":
            assert payload["states"]["pointer"] == payload["states"]["quanton"]
        if name == "verify":
            assert len(payload["checks"]) == 14 and payload["passed"] is True, payload
