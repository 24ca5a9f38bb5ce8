"""Seeded workload inputs and the output oracles that judge them.

Everything here is coded from the physics, with numpy only: nothing imports
the package under test, so a wrong answer in the package cannot agree with
itself. A workload is a list of items; each item is one `cli.main(argv)`
call, optionally writing one CSV file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("verify", "sweep-wave-detector", "sweep-dce", "measures-corpus")

LN2 = math.log(2.0)
TOL = 1e-9
# Wootters' concurrence from square roots of eigenvalues amplifies round-off
# near rank deficiency, so the concurrence oracle is looser than the others.
CONCURRENCE_TOL = 1e-6
VERIFY_CHECKS = 14

# Many mid-sized sweeps per pass rather than one huge grid: each call still
# spends about 98% of its time on grid points, and a run gets enough calls
# for a stable median on a machine whose speed drifts by tens of percent.
SWEEP_CALLS = 16
WAVE_DETECTOR_STEPS = 64
DCE_STEPS = 125

# (dims, count) per corpus pass: most files are small, so the median item
# tracks per-call Python overhead, and a few large ones set the tail.
CORPUS_LAYOUT = (
    ((2, 2), 40),
    ((2,), 10),
    ((3,), 6),
    ((2, 4), 10),
    ((16,), 8),
    ((32,), 6),
    ((64,), 4),
    ((128,), 4),
)

_PAULIS = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_YY = np.kron(_PAULIS[1], _PAULIS[1])


class Item:
    """One CLI call: its argv, the CSV it writes (if any) and its oracle."""

    def __init__(self, argv, check, csv_name=None):
        self.argv = list(argv)
        self.csv_name = csv_name
        self.check = check

    def spec(self) -> dict:
        return {"argv": self.argv, "csv": self.csv_name}


def build(workload: str, seed: int, workdir: str) -> list[Item]:
    """Generate the items of one workload; input files go into workdir."""
    rng = np.random.default_rng(seed)
    if workload == "verify":
        return [Item(["verify", "--json"], check_verify)]
    if workload == "sweep-wave-detector":
        return [_wave_detector_item(rng, i) for i in range(SWEEP_CALLS)]
    if workload == "sweep-dce":
        return [_dce_item(rng, i) for i in range(SWEEP_CALLS)]
    if workload == "measures-corpus":
        return _corpus(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _csv_rows(text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def check_verify(stdout: str, _csv: str | None) -> str | None:
    report = json.loads(stdout)
    checks = report["checks"]
    if len(checks) != VERIFY_CHECKS:
        return f"{len(checks)} checks reported, expected {VERIFY_CHECKS}"
    failing = [c["name"] for c in checks if not c["passed"]]
    if report["failures"] != 0 or failing or report["passed"] is not True:
        return f"failures={report['failures']} failing={failing}"
    return None


def _wave_detector_item(rng, index: int) -> Item:
    # Keep away from the balanced pair |a| = |b|, whose closed forms are the
    # verify grid's special case.
    low, high = (0.1, math.pi / 4 - 0.08) if index % 2 else (math.pi / 4 + 0.08, math.pi / 2 - 0.1)
    theta = rng.uniform(low, high)
    chi_a, chi_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
    alpha = math.cos(theta) * complex(math.cos(chi_a), math.sin(chi_a))
    beta = math.sin(theta) * complex(math.cos(chi_b), math.sin(chi_b))
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    ab = abs(alpha / norm * beta / norm)
    name = f"wave-detector-{index}.csv"
    argv = ["sweep", "wave-detector", "--param", "x", "--start", "0", "--stop", "1",
            "--steps", str(WAVE_DETECTOR_STEPS), "--out", name,
            "--amp-alpha-re", _fmt(alpha.real), "--amp-alpha-im", _fmt(alpha.imag),
            "--amp-beta-re", _fmt(beta.real), "--amp-beta-im", _fmt(beta.imag)]

    def check(stdout: str, text: str | None) -> str | None:
        rows = _csv_rows(text)
        grid = np.linspace(0.0, 1.0, WAVE_DETECTOR_STEPS)
        if len(rows) != grid.size:
            return f"{len(rows)} rows, expected {grid.size}"
        for x, row in zip(grid.tolist(), rows):
            conc, nonloc = 2.0 * x * ab, 4.0 * x * x * ab * ab
            ok = (_close(row["x"], x)
                  and _close(row["wavelike_q1"] + row["particlelike_q1"], LN2)
                  and _close(row["wavelike_q2"] + row["particlelike_q2"], 0.5)
                  and _close(row["p_click_0"] + row["p_click_1"], 1.0))
            for k in (0, 1):
                n_l = row[f"nonlocality_click_{k}"]
                b = row[f"chsh_max_click_{k}"]
                ok = (ok and _close(row[f"concurrence_click_{k}"], conc)
                      and _close(n_l, nonloc)
                      and _close(n_l, 2.0 * row["wavelike_q2"])
                      and _close(n_l, max(0.0, b * b / 4.0 - 1.0)))
            if not ok:
                return f"row x={x!r} misses the closed forms for |ab|={ab!r}: {row}"
        return None

    return Item(argv, check, name)


def _dce_item(rng, index: int) -> Item:
    alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
    name = f"dce-{index}.csv"
    stop = 2.0 * math.pi
    argv = ["sweep", "dce", "--param", "phi", "--start", "0", "--stop", _fmt(stop),
            "--steps", str(DCE_STEPS), "--bs2-alpha", _fmt(alpha), "--out", name]

    def check(stdout: str, text: str | None) -> str | None:
        rows = _csv_rows(text)
        grid = np.linspace(0.0, stop, DCE_STEPS)
        if len(rows) != grid.size:
            return f"{len(rows)} rows, expected {grid.size}"
        for phi, row in zip(grid.tolist(), rows):
            cos2 = math.cos(phi) ** 2
            ok = (_close(row["phi"], phi)
                  and _close(row["particlelike_q2"], 0.5 * (1.0 - math.cos(alpha) ** 4) * cos2)
                  and _close(row["entanglement_linear"], 0.25 * math.sin(2.0 * alpha) ** 2 * cos2)
                  and _close(row["wavelike_q1"] + row["particlelike_q1"], LN2)
                  and _close(row["wavelike_q2"] + row["particlelike_q2"], 0.5)
                  and _close(row["p_detector_0"] + row["p_detector_1"], 1.0))
            if not ok:
                return f"row phi={phi!r} misses the closed forms for alpha={alpha!r}: {row}"
        return None

    return Item(argv, check, name)


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _encode(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _tsallis(lam: np.ndarray, q: float) -> float:
    lam = np.clip(lam, 0.0, None)
    if q == 1.0:
        lam = lam[lam > 1e-15]
        return float(-(lam * np.log(lam)).sum())
    return float((1.0 - (lam ** q).sum()) / (q - 1.0))


def _max_entropy(dim: int, q: float) -> float:
    return math.log(dim) if q == 1.0 else (1.0 - dim ** (1.0 - q)) / (q - 1.0)


def _chsh_max(rho: np.ndarray) -> float:
    t = np.einsum("iab,jcd,bdac->ij", _PAULIS, _PAULIS,
                  rho.reshape(2, 2, 2, 2)).real
    u = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(u[-1] + u[-2], 0.0))


def _concurrence(rho: np.ndarray) -> float:
    tilde = _YY @ rho.conj() @ _YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(rho @ tilde).real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _corpus(rng, workdir: str) -> list[Item]:
    # The seed draws the numbers only. Which files are pure or mixed, carry a
    # basis or ask for q = 2 depends on the position alone, so every seed
    # costs the same work.
    items = []
    for dims, count in CORPUS_LAYOUT:
        dim = math.prod(dims)
        for k in range(count):
            index = len(items)
            if k % 2 == 0:
                psi = _ginibre(rng, dim, 1)[:, 0]
                psi /= np.linalg.norm(psi)
                rho = np.outer(psi, psi.conj())
                payload = {"dims": list(dims), "amplitudes": _encode(psi)}
            else:
                g = _ginibre(rng, dim, dim if k % 4 == 1 else max(1, dim // 2))
                rho = g @ g.conj().T
                rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
                payload = {"dims": list(dims), "matrix": [_encode(row) for row in rho]}
            state_name = f"state-{index}.json"
            with open(os.path.join(workdir, state_name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            argv = ["measures", state_name]
            basis = np.eye(dim, dtype=complex)
            if k % 4 >= 2:
                q_mat, r_mat = np.linalg.qr(_ginibre(rng, dim, dim))
                basis = q_mat * (np.diagonal(r_mat) / np.abs(np.diagonal(r_mat)))
                basis_name = f"basis-{index}.json"
                with open(os.path.join(workdir, basis_name), "w", encoding="utf-8") as fh:
                    json.dump({"dim": dim, "basis": [_encode(col) for col in basis.T]}, fh)
                argv += ["--basis", basis_name]
            q = 2.0 if k % 3 == 1 else 1.0
            if q == 2.0:
                argv += ["--q", "2"]
            items.append(Item(argv, _measures_oracle(rho, basis, dims, q)))
    return items


def _measures_oracle(rho, basis, dims, q):
    dim = rho.shape[0]
    populations = np.einsum("ak,ab,bk->k", basis.conj(), rho, basis).real
    s_rho = _tsallis(np.linalg.eigvalsh(rho), q)
    s_deph = _tsallis(populations, q)
    s_max = _max_entropy(dim, q)
    expected = {
        "entropy": max(0.0, s_rho),
        "dephased_information": s_max - s_deph,
        "wavelike": s_deph - s_rho,
        "particlelike": s_max - s_deph + s_rho,
    }
    two_qubit = tuple(dims) == (2, 2)
    if two_qubit:
        b_max = _chsh_max(rho)
        expected["chsh_max"] = b_max
        expected["nonlocality"] = max(0.0, b_max * b_max / 4.0 - 1.0)
        concurrence = _concurrence(rho)

    def check(stdout: str, _csv: str | None) -> str | None:
        out = json.loads(stdout)
        if out["q"] != q or out["dims"] != list(dims):
            return f"q/dims echo {out['q']!r}/{out['dims']!r}, expected {q!r}/{list(dims)!r}"
        if not _close(out["wavelike"] + out["particlelike"], s_max):
            return f"complementarity sum {out['wavelike'] + out['particlelike']!r} != {s_max!r}"
        if out["complementarity_residual"] > TOL:
            return f"complementarity residual {out['complementarity_residual']!r}"
        for key, want in expected.items():
            if not _close(out[key], want):
                return f"{key} = {out[key]!r}, oracle {want!r}"
        if two_qubit and not _close(out["concurrence"], concurrence, CONCURRENCE_TOL):
            return f"concurrence = {out['concurrence']!r}, oracle {concurrence!r}"
        if not two_qubit and "chsh_max" in out:
            return "CHSH block reported for a state that is not 2x2"
        return None

    return check
