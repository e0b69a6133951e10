"""The one real-number rule (polyalg.parse_real) at every entry point that
takes a real number: ints, floats, Fractions, numpy reals and exact
rational strings are stored as one finite float; bools, None, NaN,
infinities, values beyond the float range and unreadable strings are
refused with one message, and so is a value <= 0 where the number must
be positive."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from korncert.diffop import builtin_operator
from korncert.geometry import StarDomain, line_points, sample_grid
from korncert.kernel import KernelBasis, kernel_basis
from korncert.normtest import classify, numeric_nullspace, point_measure_test

_BALL2 = StarDomain.ball(2)
_KB = kernel_basis(builtin_operator("sym_grad", 2), 1)
# The tolerance check runs before the trivial-kernel answer, which
# reports the tolerances it was given.
_TRIVIAL = KernelBasis(operator=_KB.operator, K=1, basis=(), m=_KB.m, rank=_KB.m)


def _sine2d_json(c):
    return StarDomain.from_json({"n": 2, "radial": {"family": "sine2d", "c": c, "a": 1, "m": 3}})


# name: (what the messages call the value, whether it must be positive,
# and a call that passes the value and returns what the entry point
# made of it).
_ENTRY_POINTS = {
    "StarDomain.c": ("c", False, lambda v: StarDomain(n=2, family="constant", c=v).c),
    "StarDomain.a": ("a", False, lambda v: StarDomain(n=2, family="sine2d", c=4.0, a=v, m1=3).a),
    "StarDomain.ball": ("c", False, lambda v: StarDomain.ball(3, v).c),
    "StarDomain.sine3d": ("a", False, lambda v: StarDomain.sine3d(4, v, 2, 3).a),
    "StarDomain.from_json": ("c", False, lambda v: _sine2d_json(v).c),
    "sample_grid": ("an angular range bound", False, lambda v: sample_grid(_BALL2, 4, [[0, v]]).ranges[0][1]),
    "line_points": ("extent", True, lambda v: float(line_points([0, 0], [1, 0], 3, v)[-1][0])),
    "classify.sigma_rel": (
        "sigma_rel",
        True,
        lambda v: classify(
            _TRIVIAL, _BALL2, "normal", sample_grid(_BALL2, 6), sample_grid(_BALL2, 12), sigma_rel=v
        ).diagnostics.sigma_rel,
    ),
    "point_measure_test.tol_dense": (
        "tol_dense",
        True,
        lambda v: point_measure_test(_KB, [[0.3, 0.7]], tol_dense=v).diagnostics.tol_dense,
    ),
    # Any sigma_rel >= 1 keeps both directions of diag(1, 0); the value
    # itself is not reported, so _MADE_OF gives the nullity it leads to.
    "numeric_nullspace": ("sigma_rel", True, lambda v: numeric_nullspace(np.diag([1.0, 0.0]), v).dim),
}
# What an entry point makes of an accepted value, where not the float.
_MADE_OF = {"numeric_nullspace": lambda x: 2}

_ACCEPTED = {
    "int": (2, 2.0),
    "float": (2.5, 2.5),
    "Fraction": (Fraction(5, 2), 2.5),
    "str": ("5/2", 2.5),
    "float32": (np.float32(2.5), 2.5),
    "int64": (np.int64(2), 2.0),
}

_BEYOND = "a value beyond the float range"
_REFUSED = {
    "bool": (True, repr(True)),
    "None": (None, repr(None)),
    "nan": (math.nan, "nan"),
    "inf": (math.inf, "inf"),
    "-inf": (-math.inf, "-inf"),
    "big-int": (10**400, _BEYOND),
    "big-str": ("1e999", _BEYOND),
    "str": ("x", repr("x")),
}


@pytest.mark.parametrize("given", list(_ACCEPTED))
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_real_rule_accepts(entry, given):
    _, _, call = _ENTRY_POINTS[entry]
    value, as_float = _ACCEPTED[given]
    stored = call(value)
    expected = _MADE_OF.get(entry, lambda x: x)(as_float)
    assert stored == expected and type(stored) is type(expected)


@pytest.mark.parametrize("given", list(_REFUSED))
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_real_rule_refuses(entry, given):
    what, _, call = _ENTRY_POINTS[entry]
    value, shown = _REFUSED[given]
    with pytest.raises(ValueError, match=rf"^{re.escape(what)} must be a finite real number, got {re.escape(shown)}$"):
        call(value)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("entry", [name for name, (_, positive, _) in _ENTRY_POINTS.items() if positive])
def test_positive_entry_points_refuse_what_is_not_above_zero(entry, value):
    what, _, call = _ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^need {what} > 0, got {float(value)!r}$"):
        call(value)


@pytest.mark.parametrize("given", list(_ACCEPTED))
def test_every_accepted_radius_writes_plain_json(given):
    # json.dumps refuses a Fraction or a numpy scalar and writes an
    # infinity as Infinity, so the radius must be stored as a finite float.
    value, as_float = _ACCEPTED[given]
    for dom in (StarDomain(n=2, family="constant", c=value), StarDomain.ball(3, value), _sine2d_json(value)):
        assert json.loads(json.dumps(dom.to_json(), allow_nan=False))["radial"]["c"] == as_float
