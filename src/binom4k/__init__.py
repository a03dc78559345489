"""Rigorous verifier for series identities involving C(4k,k) and harmonic numbers.

Exact rational / number-field arithmetic certifies the symbolic claims;
directed-rounded enclosure arithmetic with certified tail bounds evaluates
every infinite series to a requested number of digits.
"""

from .exact import (
    AlgebraicReal,
    NFElem,
    NumberField,
    Poly,
    RatFunc,
    ZeroDivisorError,
    sqrt_in_field,
)
from .balls import Ball, QuadResult, const_log, const_pi, const_sqrt, quad_integrate
from .series import SeriesSpec, harmonic, sum_series
from .genfunc import PointContext, eval_f, point_context
from .catalog import (
    ClosedForm,
    IdentityEntry,
    builtin_catalog,
    eval_closed_form,
)

__version__ = "0.1.0"
