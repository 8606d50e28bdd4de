"""kdvlab: pseudospectral laboratory for KdV-type completely integrable flows.

Building blocks: Fourier fields on circles and boxes (``spectral``), the
Schroedinger resolvent with its diagonal Green's function and perturbation
determinant (``greens``), integrating-factor RK4 evolution of the KdV /
H_kappa / band-truncated H_kappa flows with conservation monitors
(``flows``), the circle-to-line cutting and unwrapping pipeline (``bridge``),
and a non-squeezing experiment harness with CLI (``squeeze``, ``cli``).

The bridge loads on first use: ``kdvlab.select_cut`` and the other bridge
names below resolve through the module ``__getattr__`` (PEP 562), so a run
that never cuts circle data does not compile ``bridge``.  Every other name is
imported eagerly.
"""

__version__ = "0.1.0"

from .spectral import (
    LineField,
    MultiplierSpec,
    PeriodicField,
    TorusGrid,
    derivative,
    field_from_modes,
    line_norm_refinement,
    lp_project,
    make_field,
    pairing,
    sobolev_norm,
    symplectic_form,
    truncate_field,
)
from .greens import (
    AlphaResult,
    ResolventContext,
    alpha,
    alpha_of,
    assemble_resolvent,
    free_diagonal_constant,
    green_diagonal,
    green_of,
    hs_norm,
    polynomial_invariants,
)
from .flows import (
    HM1_RADIUS,
    FlowSpec,
    HamiltonianSpec,
    Trajectory,
    evolve,
    evolve_batch,
    flow_sweep,
    monitors,
    rhs,
)
from .squeeze import (
    AreaResult,
    SearchBudget,
    SearchResult,
    SqueezeScenario,
    build_scenario,
    escape_search,
    image_area,
    linear_oracle,
    sample_ball,
)
from .reporting import RunManifest, run_report, sha256_digest, write_csv

_BRIDGE_NAMES = frozenset({
    "CutPlan",
    "PartitionFamily",
    "RampBump",
    "build_partition",
    "compare_local",
    "localized_norms",
    "select_cut",
    "unwrap",
})


def __getattr__(name):
    if name in _BRIDGE_NAMES:
        from . import bridge

        value = globals()[name] = getattr(bridge, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
