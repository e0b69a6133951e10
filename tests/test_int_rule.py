"""The one integer rule (polyalg.parse_int) at every entry point that
takes an integer: numpy integers are ints and are stored as plain ints;
bools, floats, strings and None are refused with one message, and so is
a value below the entry point's minimum."""

import json
import random
import re
from unittest import mock

import numpy as np
import pytest

from korncert.diffop import builtin_operator, custom_operator, ellipticity_probe
from korncert.geometry import GeometryError, StarDomain, grid_frame, interior_points, line_points, sample_grid
from korncert.kernel import kernel_basis, kernel_dim_profile, kernel_to_json
from korncert.polyalg import MultiIndex, PolyVec, _monomial_basis, monomial_basis

_OP = builtin_operator("sym_grad", 2)
_BALL2, _BALL3 = StarDomain.ball(2), StarDomain.ball(3)


def _wavy3(m1=2, m2=3):
    return StarDomain(n=3, family="sine3d", c=2.0, a=1.0, m1=m1, m2=m2)


def _seed_given_to_random(call) -> int:
    """The seed that call hands random.Random."""
    seeds = []

    class Spy(random.Random):
        def seed(self, a=None, version=2):
            seeds.append(a)
            super().seed(a, version)

    with mock.patch.object(random, "Random", Spy):
        call()
    return seeds[0]


# name: (what the messages call the value, its minimum, a call that
# passes the value and returns what the entry point made of it).  None
# as the minimum: the value has no plain minimum.
_ENTRY_POINTS = {
    "StarDomain.n": ("the dimension", None, lambda v: StarDomain(n=v, family="constant", c=1.0).n),
    "StarDomain.m1": ("a radial frequency", None, lambda v: _wavy3(m1=v).m1),
    "StarDomain.m2": ("a radial frequency", None, lambda v: _wavy3(m2=v).m2),
    "sample_grid": ("grid count", 1, lambda v: sample_grid(_BALL3, [4, v]).counts[1]),
    "interior_points": ("count", 0, lambda v: len(interior_points(_BALL2, v))),
    "line_points": ("count", 2, lambda v: len(line_points([0, 0], [1, 0], v, 1.0))),
    "MultiIndex": ("a multi-index entry", 0, lambda v: MultiIndex((1, v)).entries[1]),
    "monomial_basis.n": ("n", 1, lambda v: monomial_basis(v, 1).n),
    "monomial_basis.K": ("K", 0, lambda v: monomial_basis(2, v).K),
    "PolyVec.dimV": ("dimV", 1, lambda v: PolyVec(monomial_basis(1, 0), v, (0, 0)).dimV),
    "kernel_basis": ("K", 0, lambda v: kernel_basis(_OP, v).K),
    "kernel_dim_profile": ("K_max", 0, lambda v: len(kernel_dim_profile(_OP, v).dims) - 1),
    "builtin_operator.n": ("n", 1, lambda v: builtin_operator("grad", v).n),
    "builtin_operator.order": ("order", 1, lambda v: builtin_operator("grad_k", 2, order=v).order),
    "ellipticity_probe": ("trials", 1, lambda v: ellipticity_probe(_OP, trials=v).elliptic_trials),
    "ellipticity_probe.seed": ("seed", None, lambda v: _seed_given_to_random(lambda: ellipticity_probe(_OP, seed=v))),
    "interior_points.seed": ("seed", None, lambda v: _seed_given_to_random(lambda: interior_points(_BALL2, 1, v))),
}

# Where there is no plain minimum: the outcome of a small value.
_BELOW = {
    "StarDomain.n": (1, GeometryError, r"^only n in \{2, 3\} supported, got 1$"),
    "StarDomain.m1": (np.int64(-1), None, None),  # sin(-m t) = -sin(m t): accepted
    "StarDomain.m2": (np.int64(-1), None, None),
    "ellipticity_probe.seed": (np.int64(-1), None, None),  # random.Random takes any int
    "interior_points.seed": (np.int64(-1), None, None),
}

_INPUTS = {
    "int64": np.int64(2),
    "int32": np.int32(2),
    "bool": True,
    "numpy-bool": np.True_,
    "float": 2.0,
    "str": "2",
    "None": None,
    "below": "below",
}


@pytest.mark.parametrize("given", list(_INPUTS))
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_integer_rule(entry, given):
    what, minimum, call = _ENTRY_POINTS[entry]
    value, error = _INPUTS[given], ValueError
    if entry in _BELOW and given == "below":
        value, error, message = _BELOW[entry]
    elif given == "below":
        value, message = minimum - 1, rf"^need {re.escape(what)} >= {minimum}, got {minimum - 1}$"
    elif isinstance(value, np.integer):
        error = None
    else:
        message = rf"^{re.escape(what)} must be an int, got {re.escape(repr(value))}$"
    if error is not None:
        with pytest.raises(error, match=message):
            call(value)
        return
    stored = call(value)
    assert stored == value and type(stored) is int


def test_numpy_int_domain_writes_plain_json():
    radial = {"family": "sine3d", "c": 2, "a": 1, "m1": np.int32(2), "m2": np.int64(3)}
    dom = StarDomain.from_json({"n": np.int64(3), "radial": radial})
    assert json.dumps(dom.to_json()) == json.dumps(_wavy3().to_json())


@pytest.mark.parametrize(
    "dom,counts,numpy_counts",
    [
        (_BALL2, 12, np.int64(12)),
        (_BALL2, [12], [np.int32(12)]),
        (_BALL3, [4, 6], [np.int64(4), np.int32(6)]),
        (_wavy3(), (5, 7), (np.int64(5), np.int64(7))),
        # Any 1-D input is the counts, not only a list or tuple.
        (_BALL2, [4], np.array([4])),
        (_BALL3, [4, 4], np.array([4, 4])),
        (_BALL3, [8, 8], np.full(2, 8)),
        (_wavy3(), [4, 5], range(4, 6)),
    ],
)
def test_numpy_int_counts_give_the_same_frames(dom, counts, numpy_counts):
    grid, numpy_grid = sample_grid(dom, counts), sample_grid(dom, numpy_counts)
    assert numpy_grid.counts == grid.counts
    for a, b in zip((grid.thetas, *grid_frame(dom, grid)), (numpy_grid.thetas, *grid_frame(dom, numpy_grid))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("first_last", ["refused-first", "refused-last"])
@pytest.mark.parametrize("n,good,bad", [(2, 1, True), (3, 2, 2.0), (3, 4, 4.0)])
def test_monomial_basis_does_not_depend_on_call_order(first_last, n, good, bad):
    # The memo used to hand out a K=True basis after monomial_basis(2,
    # True), and the K=2 basis for monomial_basis(3, 2.0) once K=2 was
    # memoised, while monomial_basis(3, 4.0) raised TypeError.
    _monomial_basis.cache_clear()
    message = rf"^K must be an int, got {bad!r}$"
    if first_last == "refused-first":
        with pytest.raises(ValueError, match=message):
            monomial_basis(n, bad)
    basis = monomial_basis(n, good)
    assert type(basis.K) is int and basis.K == good
    with pytest.raises(ValueError, match=message):
        monomial_basis(n, bad)
    assert monomial_basis(n, good) is basis
    assert monomial_basis(np.int64(n), np.int64(good)) is basis


def test_kernel_of_a_bool_degree_is_refused():
    # kernel_to_json(kernel_basis(op, True)) used to write "K": true.
    with pytest.raises(ValueError, match=r"^K must be an int, got True$"):
        kernel_basis(_OP, True)
    assert kernel_to_json(kernel_basis(_OP, np.int64(1)))["K"] == 1


def test_numpy_int_seeds_give_the_same_draws():
    # One variable and fewer outputs than inputs: the witness is the
    # first random frequency, so the report shows the seed's draws.
    op = custom_operator([((1,), [[1, 1]])])
    report = ellipticity_probe(op, seed=5).to_json()
    assert ellipticity_probe(op, seed=np.int64(5)).to_json() == report
    assert ellipticity_probe(op, seed=6).to_json() != report
    for a, b in zip(interior_points(_BALL2, 4, seed=np.int32(5)), interior_points(_BALL2, 4, seed=5)):
        assert a.tobytes() == b.tobytes()
