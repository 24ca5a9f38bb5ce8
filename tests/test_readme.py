"""The README's library claims: its Python examples run, its re-exports exist,
and each public name has a job."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import waveparticle
from waveparticle import channels, experiments, measures, nonlocality, states

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(waveparticle.__file__).resolve().parent
LIBRARY_LAYERS = (states, channels, measures, nonlocality, experiments)
PUBLIC_NAMES = {
    "BEAM_SPLITTER", "CheckResult", "ExperimentReport", "ImpossibleOutcomeError",
    "ReferenceObservable", "ReportState", "ValidationError",
    "balanced_path_state", "basis_state", "chsh_bruteforce", "chsh_nl", "concurrence",
    "correlation_matrix", "dce_analyze", "demon_work_gap", "dephase", "duality",
    "hermitian_part", "information", "max_entropy", "measurement_model",
    "morphing_scan", "mzi_run", "particlelike_info", "partial_trace", "path_basis",
    "populations", "projector", "reduced_from_informer", "run_checks",
    "shannon", "tsallis_entropy", "validate_density", "validate_pure", "wave_detector_run",
    "wavelike_info", "wavelike_upper_bound", "work",
}
# Public names no module of the package calls, kept because each computes a
# quantity the paper defines.
PAPER_QUANTITIES = {
    "work": "extractable work k_B T I(rho), one side of the work-information couple",
    "demon_work_gap": "k_B T times the wavelike information, that couple read in a basis",
    "particlelike_info": "the particlelike half of the wave/particle split",
    "correlation_matrix": "the Horodecki correlation tensor behind the CHSH maximum",
    # mzi_run's local variable of this name would hide a dead function from the scan
    "populations": "the outcome probabilities, which are the dephased state's spectrum",
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
    assert len(PUBLIC_NAMES) == 38
    assert len(waveparticle.__all__) == len(set(waveparticle.__all__))
    assert set(waveparticle.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from waveparticle import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def _modules(skip=()) -> list:
    """The parsed source of every module of the package not named in skip."""
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
            if path.name not in skip]


def _loaded_attributes(modules) -> set:
    return {node.attr for module in modules for node in ast.walk(module)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_used_or_is_a_paper_quantity():
    # a name counts as used where any layer module loads it, bare or as an attribute
    modules = _modules(skip=("__init__.py",))
    loaded = _loaded_attributes(modules) | {
        node.id for module in modules for node in ast.walk(module)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert PAPER_QUANTITIES.keys() <= set(waveparticle.__all__)
    assert set(waveparticle.__all__) - loaded - PAPER_QUANTITIES.keys() == set()


def _is_record(node: ast.ClassDef) -> bool:
    """A NamedTuple subclass, or a class decorated with @dataclass or @dataclass(...)."""
    bases = {getattr(base, "id", None) for base in node.bases}
    decorators = {getattr(getattr(d, "func", d), "id", None) for d in node.decorator_list}
    return "NamedTuple" in bases or "dataclass" in decorators


def test_every_record_field_is_read():
    # a field counts as read where any module loads an attribute of its name;
    # a value the package only stores is not kept
    modules = _modules()
    fields = {f"{node.name}.{line.target.id}": line.target.id
              for module in modules for node in ast.walk(module)
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for line in node.body
              if isinstance(line, ast.AnnAssign) and isinstance(line.target, ast.Name)}
    assert {"LoadedState.spectrum", "ReportState.matrix", "CheckResult.detail"} <= fields.keys()
    loaded = _loaded_attributes(modules)
    assert {field for field, attr in fields.items() if attr not in loaded} == set()
