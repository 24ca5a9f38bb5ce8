"""The README's library claims: its Python examples run, its re-exports exist."""

import inspect
import re
from pathlib import Path

import pytest

import waveparticle
from waveparticle import channels, experiments, measures, nonlocality, states

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY_LAYERS = (states, channels, measures, nonlocality, experiments)
PUBLIC_NAMES = {
    "BEAM_SPLITTER", "BipartiteSplit", "CheckResult", "ChshSettings", "ExperimentReport",
    "ImpossibleOutcomeError", "InformerModel", "MziConfig", "NATURAL_UNITS",
    "ReferenceObservable", "ReportState", "ThermalContext", "ValidationError", "WernerInput",
    "balanced_path_state", "basis_state", "chsh_bruteforce", "chsh_nl", "chsh_operator",
    "chsh_value", "concurrence", "correlation_matrix", "dce_analyze", "demon_work_gap",
    "dephase", "duality", "eig_hermitian", "hermitian_part", "hs_norm_sq", "information",
    "linear_entanglement", "max_entropy", "measure_select", "measure_select_joint",
    "measurement_model", "morphing_scan", "mzi_run", "particlelike_info", "partial_trace",
    "path_basis", "phase_shifter", "populations", "projector", "purify", "recombined_state",
    "reduced_from_informer", "run_checks", "shannon", "tensor", "tsallis_entropy",
    "validate_density", "validate_pure", "wave_detector_run", "wavelike_info",
    "wavelike_upper_bound", "work",
}


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("module", LIBRARY_LAYERS, ids=lambda m: m.__name__)
def test_library_layer_is_re_exported(module):
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert public
    for name in public:
        assert name in waveparticle.__all__, name
        assert getattr(waveparticle, name) is getattr(module, name)


def test_public_surface_is_the_imported_objects():
    # no module the imports bind, and no helper the derivation of __all__ imports
    assert len(PUBLIC_NAMES) == 56
    assert len(waveparticle.__all__) == len(set(waveparticle.__all__))
    assert set(waveparticle.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from waveparticle import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
