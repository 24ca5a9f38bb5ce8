"""Command-line surface: measures, experiments, sweeps, verification."""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import io, measures
# benchmarks/test_bench.py checks that its tracer rebinds cli.dephase
from .channels import ReferenceObservable, dephase  # noqa: F401
from .experiments import (
    ExperimentReport,
    dce_analyze,
    measurement_model,
    morphing_scan,
    mzi_run,
    wave_detector_run,
)
from .nonlocality import _two_qubit_measures
from .states import _certified_spectrum
from .verify import run_checks

_AMP_NORM_TOL = 1e-4
# Grid points per scenario call in a sweep: large enough that per-call
# overhead vanishes, small enough that the stacks of one block stay a few MB.
SWEEP_BLOCK = 1024


def _amplitudes(args) -> np.ndarray:
    parts = (args.amp_alpha_re, args.amp_alpha_im,
             args.amp_beta_re, args.amp_beta_im)
    if all(p is None for p in parts):
        return np.array([2 ** -0.5, 2 ** -0.5], dtype=complex)
    filled = [0.0 if p is None else float(p) for p in parts]
    amps = np.array([complex(filled[0], filled[1]),
                     complex(filled[2], filled[3])], dtype=complex)
    with np.errstate(over="ignore"):   # a huge part gives inf, refused below
        norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= _AMP_NORM_TOL:
        raise ValueError(f"amplitudes are not normalized: |a|^2+|b|^2 = {norm_sq!r}")
    return amps / np.sqrt(norm_sq)


def _run(args) -> ExperimentReport:
    """The scenario of args, plus the --q split of its principal state when
    that order is not one the scenario already reports."""
    scenario = SCENARIOS[args.name]
    report = scenario.run(args)
    if args.q not in (1.0, 2.0):
        rho = report.states[scenario.principal_state].matrix
        split = measures.duality(rho, ReferenceObservable.computational(rho.shape[-1]), args.q)
        report.scalars["q"] = float(args.q)
        report.scalars["wavelike_q"] = split["wavelike"]
        report.scalars["particlelike_q"] = split["particlelike"]
    return report


def cmd_measures(args) -> int:
    loaded = io.load_state(args.state)
    dim = loaded.density.shape[0]
    if args.basis is None:
        obs = ReferenceObservable.computational(dim)
    else:
        obs = io.load_observable(args.basis, dim)
    q = measures._check_q(args.q)
    two_qubit = tuple(loaded.dims) == (2, 2)
    # one spectrum of the state, shared by the split, CHSH and concurrence: a
    # matrix file's comes from its repair, an amplitude file's is solved here
    if loaded.spectrum is None:
        rho, lam, vectors = _certified_spectrum(loaded.density, vectors=two_qubit)
    else:
        rho, (lam, vectors) = loaded.density, loaded.spectrum
    split = measures._duality(rho, lam, obs, q)
    residual = abs(split["wavelike"] + split["particlelike"] - measures.max_entropy(dim, q))
    payload = {
        "q": q,
        "dims": [int(d) for d in loaded.dims],
        **split,
        "complementarity_residual": residual,
    }
    if two_qubit:
        payload["chsh_max"], payload["nonlocality"], payload["concurrence"] = (
            _two_qubit_measures(rho, lam, vectors))
    sys.stdout.write(io.dumps(payload))
    return 0


def cmd_experiment(args) -> int:
    sys.stdout.write(io.dumps(io.report_payload(_run(args))))
    return 0


def cmd_sweep(args) -> int:
    scenario = SCENARIOS[args.name]
    if args.param not in scenario.sweepable:
        options = ", ".join(scenario.sweepable) if scenario.sweepable else "none"
        raise ValueError(f"cannot sweep {args.param!r} for {args.name}; options: {options}")
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    for flag, bound in (("--start", args.start), ("--stop", args.stop)):
        if not np.isfinite(bound):
            raise ValueError(f"{flag} must be finite, got {bound!r}")
    if not args.start <= args.stop:
        raise ValueError(f"start {args.start!r} exceeds stop {args.stop!r}")
    span = args.stop - args.start   # Python floats: an overflow gives inf and no warning
    if not np.isfinite(span):
        raise ValueError(f"--stop - --start must be finite, got {span!r}")
    field = args.param.replace("-", "_")
    # a span near the largest double can round (steps - 1) * step past it; only
    # the last point's product can overflow, and linspace then sets it to stop
    with np.errstate(over="ignore"):
        grid = np.linspace(args.start, args.stop, args.steps)
    blocks = (grid[i:i + SWEEP_BLOCK] for i in range(0, grid.size, SWEEP_BLOCK))
    evaluated = ((block, _run(argparse.Namespace(**{**vars(args), field: block})).scalars)
                 for block in blocks)
    # The first block runs before the file is opened and names the columns;
    # the others run while it is written, so only one block is held at a time.
    first = next(evaluated)
    tables = (np.column_stack(np.broadcast_arrays(block, *scalars.values()))
              # a scalar such as q repeats down the block
              for block, scalars in itertools.chain([first], evaluated))
    io.write_csv(args.out, [args.param, *first[1]], tables)
    sys.stdout.write(f"wrote {grid.size} rows to {args.out}\n")
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed,
                 "residual": r.residual, "tolerance": r.tolerance,
                 "detail": r.detail}
                for r in results
            ],
            "passed": all_passed,
            "failures": sum(not r.passed for r in results),
        }
        sys.stdout.write(io.dumps(payload))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(
                f"{status} {r.name} residual={io.format_float(r.residual)} "
                f"tolerance={io.format_float(r.tolerance)} ({r.detail})\n")
        sys.stdout.write(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
    return 0 if all_passed else 1


def _run_dce(args) -> ExperimentReport:
    if args.bs2_alpha is None:
        raise ValueError("--bs2-alpha is required for dce")
    return dce_analyze(args.bs2_alpha, args.phi)


def _run_morphing(args) -> ExperimentReport:
    if args.eta is None:
        raise ValueError("--eta is required for morphing")
    return morphing_scan(_amplitudes(args), args.eta)


class Scenario(NamedTuple):
    """A runner from parsed flags, the flags sweep may vary, and the state --q
    reads. A runner takes an array for any sweepable flag and evaluates the
    whole array in one call."""

    run: Callable[[argparse.Namespace], ExperimentReport]
    sweepable: tuple[str, ...]
    principal_state: str


SCENARIOS = {
    "mzi": Scenario(lambda args: mzi_run(args.phi, args.bs2), ("phi",), "pre_detector"),
    "dce": Scenario(_run_dce, ("bs2-alpha", "phi"), "quanton"),
    "wave-detector": Scenario(lambda args: wave_detector_run(args.x, _amplitudes(args)),
                              ("x",), "input"),
    "measurement-model": Scenario(
        lambda args: measurement_model(_amplitudes(args), args.click),
        (), "quanton"),
    "morphing": Scenario(_run_morphing, ("eta",), "quanton"),
}


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it."""
    global _parser
    if _parser is not None:
        return _parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, default=1.0,
                        help="entropy order (default 1)")

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--phi", type=float, default=0.0,
                       help="relative phase in radians")
    flags.add_argument("--bs2", choices=["present", "absent"], default="present",
                       help="output beam splitter mode (mzi)")
    flags.add_argument("--bs2-alpha", dest="bs2_alpha", type=float, default=None,
                       help="output splitter mixing angle in radians (dce)")
    flags.add_argument("--x", type=float, default=1.0,
                       help="mixing weight of the pure part (wave-detector)")
    flags.add_argument("--amp-alpha-re", dest="amp_alpha_re", type=float, default=None)
    flags.add_argument("--amp-alpha-im", dest="amp_alpha_im", type=float, default=None)
    flags.add_argument("--amp-beta-re", dest="amp_beta_re", type=float, default=None)
    flags.add_argument("--amp-beta-im", dest="amp_beta_im", type=float, default=None)
    flags.add_argument("--eta", type=float, default=None,
                       help="informer overlap in [0, 1] (morphing)")
    flags.add_argument("--click", type=int, default=None,
                       help="condition on this detector outcome (measurement-model)")

    parser = argparse.ArgumentParser(
        prog="waveparticle",
        description="Wave/particle information measures and interferometer models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measures = sub.add_parser("measures", parents=[common],
                                help="information measures of a state file")
    p_measures.add_argument("state", help="state file (JSON)")
    p_measures.add_argument("--basis", default=None,
                            help="reference observable file (JSON)")
    p_measures.set_defaults(func=cmd_measures)

    p_exp = sub.add_parser("experiment", parents=[common, flags],
                           help="run a named scenario")
    p_exp.add_argument("name", choices=SCENARIOS)
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser("sweep", parents=[common, flags],
                             help="sweep one parameter to CSV")
    p_sweep.add_argument("name", choices=SCENARIOS)
    p_sweep.add_argument("--param", required=True,
                         help="parameter to sweep (flag name without dashes)")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable JSON output")
    p_verify.set_defaults(func=cmd_verify)
    _parser = parser
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
