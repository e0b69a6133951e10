"""Exact polynomial kernels of constant-coefficient elliptic operators
and certified norm tests for sampled trace seminorms.

The pipeline: build a :class:`DiffOperator`, compute its exact kernel
inside the polynomials of bounded degree with :func:`kernel_basis`, pick
a star-shaped :class:`StarDomain` and a trace kind, and let
:func:`classify` decide whether the sampled seminorm is a norm on that
kernel.  Verdicts carry explicit certificate fields whenever the answer
is no on a proper subspace.
"""

from .diffop import (
    ComplexRational,
    DiffOperator,
    EllipticityReport,
    SymbolMatrix,
    Witness,
    apply_operator,
    builtin_operator,
    custom_operator,
    ellipticity_probe,
    operator_from_json,
    operator_from_tensor4,
    symbol_matrix,
)
from .geometry import (
    GeometryError,
    SampleGrid,
    StarDomain,
    boundary_point,
    interior_points,
    line_points,
    outward_normal,
    sample_grid,
)
from .kernel import (
    DimProfile,
    KernelBasis,
    coefficient_matrix,
    kernel_basis,
    kernel_dim_profile,
    kernel_to_json,
)
from .normtest import (
    Diagnostics,
    NullspaceResult,
    TraceKind,
    Verdict,
    certificate_residual,
    classify,
    numeric_nullspace,
    point_measure_test,
)
from .polyalg import (
    MonomialBasis,
    MultiIndex,
    PolyVec,
    differentiate,
    eval_poly,
    format_poly,
    format_rational,
    monomial_basis,
    parse_rational,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexRational",
    "Diagnostics",
    "DiffOperator",
    "DimProfile",
    "EllipticityReport",
    "GeometryError",
    "KernelBasis",
    "MonomialBasis",
    "MultiIndex",
    "NullspaceResult",
    "PolyVec",
    "SampleGrid",
    "StarDomain",
    "SymbolMatrix",
    "TraceKind",
    "Verdict",
    "Witness",
    "apply_operator",
    "boundary_point",
    "builtin_operator",
    "certificate_residual",
    "classify",
    "coefficient_matrix",
    "custom_operator",
    "differentiate",
    "ellipticity_probe",
    "eval_poly",
    "format_poly",
    "format_rational",
    "interior_points",
    "kernel_basis",
    "kernel_dim_profile",
    "kernel_to_json",
    "line_points",
    "monomial_basis",
    "numeric_nullspace",
    "operator_from_json",
    "operator_from_tensor4",
    "outward_normal",
    "parse_rational",
    "point_measure_test",
    "sample_grid",
    "symbol_matrix",
    "__version__",
]
