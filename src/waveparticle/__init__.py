"""Wave/particle information measures for small quantum systems.

Implements entropic wavelike/particlelike information in a chosen reference
basis, the complementarity equality they satisfy, CHSH nonlocality and
concurrence for two qubits, and circuit-level models of interferometer
scenarios where the duality shows up operationally.
"""

from types import ModuleType as _ModuleType

from .channels import (
    ReferenceObservable,
    dephase,
    populations,
    reduced_from_informer,
)
from .experiments import (
    BEAM_SPLITTER,
    ExperimentReport,
    ImpossibleOutcomeError,
    ReportState,
    balanced_path_state,
    dce_analyze,
    measurement_model,
    morphing_scan,
    mzi_run,
    path_basis,
    wave_detector_run,
)
from .measures import (
    demon_work_gap,
    duality,
    information,
    max_entropy,
    particlelike_info,
    shannon,
    tsallis_entropy,
    wavelike_info,
    wavelike_upper_bound,
    work,
)
from .nonlocality import (
    chsh_bruteforce,
    chsh_nl,
    concurrence,
    correlation_matrix,
)
from .states import (
    ValidationError,
    basis_state,
    hermitian_part,
    partial_trace,
    projector,
    validate_density,
    validate_pure,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

# every public object imported above; the layer modules, bound here as
# attributes of the package by those imports, are left out
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
