"""Numerical function theory over Cayley-Dickson algebras.

Arithmetic and transcendental functions on the complex numbers, quaternions,
octonions, sedenions and higher doublings (levels r = 1..8), together with
noncommutative line integrals, Cauchy-type integral formulas, residues,
Taylor/Laurent coefficient extraction by contour quadrature, and verification
of the generalized Cauchy-Riemann conditions.
"""

from .algebra import (
    EPS_ZERO,
    MAX_LEVEL,
    AlgebraLevel,
    BasisTable,
    CDNumber,
    as_level,
    basis_element,
    basis_table,
    conj,
    conj_via_generators,
    embed,
    find_zero_divisor,
    from_real,
    mul,
    one,
    pow_int,
    random_element,
    random_unit_imaginary,
    zero,
)
from .contour import (
    ContourReport,
    IndexVector,
    ar_index,
    argument_principle,
    cauchy_derivative,
    cauchy_eval,
    coefficient_mode,
    find_root,
    is_central,
    laurent_coeffs,
    residue,
    residue_theorem_check,
    sum_residues_check,
    taylor_coeffs,
    winding_index,
)
from .diffcheck import (
    CRReport,
    cr_check,
    harmonic_check,
    zbar_check,
)
from .errors import (
    CDError,
    DomainError,
    ExprSyntaxError,
    LevelMismatchError,
    NonConvergenceError,
    PoleError,
    SingularElementError,
    StepControlError,
    UnsupportedShapeError,
)
from .expressions import (
    Phrase,
    derivative_apply,
    evaluate,
    format_phrase,
    parse,
    phrase_from_json,
    phrase_to_json,
    primitive,
)
from .integrate import (
    DEFAULT_TOL,
    Path,
    QuadratureResult,
    line_integral,
    log_integral,
    path_from_json,
)
from .transcendental import (
    exp,
    exp_series,
    ln_principal,
    polar_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
