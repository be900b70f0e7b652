"""The library's input boundary: every malformed caller value is a ValueError.

Each public constructor and entry point that takes caller values is called
with one argument replaced by a malformed value (a wrong type, a
non-integral or non-finite number, a bool where an integer belongs, a block
of the wrong shape or a block list of the wrong length, or a closure that
returns one), and must raise a ``ValueError`` subclass: never a
``TypeError``, an ``AttributeError``, an ``IndexError``, a silent NaN or a
silent truncation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import todakit as tk
from todakit.grading import BlockStructure, DynkinLabels, GradationError
from todakit.solver import (
    CharacteristicData,
    liouville_boundary,
    liouville_closure,
    liouville_field,
    liouville_system,
    march,
)

from conftest import build_case

TAG = tk.SeriesTag("A", 1)
SPEC = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
GRID = (0.0, 2.0, 0.25, 0.25, 5, 5)
LIOUVILLE = liouville_field(SPEC)
DATA = liouville_boundary(SPEC)
OTHER = build_case("A", 2, (1, 2))
OTHER_C = tk.make_c_blocks(OTHER, [np.zeros((2, 1))], [np.zeros((1, 2))])

junk = st.one_of(st.none(), st.just(object()), st.text(max_size=3),
                 st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
non_integral = st.one_of(st.floats(), st.complex_numbers(), st.none(), st.text(max_size=2),
                         st.lists(st.integers(), max_size=2), st.booleans())
bad_ints = st.one_of(st.none(), st.integers(), st.just(object()),
                     st.tuples(st.integers(1, 2), non_integral),
                     st.lists(st.booleans(), min_size=1, max_size=2).map(tuple))
bad_real = st.one_of(non_finite, st.booleans(), st.complex_numbers(), st.none(),
                     st.text(max_size=3), st.lists(st.floats(), max_size=2))
bad_tag = st.one_of(junk, st.sampled_from("ABCD"), st.tuples(st.sampled_from("ABCD"), st.integers(1, 3)))


def _non_finite_copy(block, x):
    out = np.array(block, dtype=complex)
    out.flat[-1] = x
    return out


def bad_entry(block, valid):
    """A block that is not numeric, has a shape ``valid`` rejects, or is
    ``block`` with a non-finite last entry."""
    shapes = st.lists(st.integers(1, 3), max_size=4).map(tuple).filter(lambda s: not valid(s))
    return st.one_of(
        st.none(), st.text(max_size=3), st.just([["1.0"]]), st.just([[1.0], [1.0, 2.0]]),
        shapes.map(np.ones),
        non_finite.map(lambda x: _non_finite_copy(block, x)),
    )


def bad_family(blocks, valid):
    """A list for ``blocks`` that is no list, has the wrong length or holds a bad block."""
    blocks = list(blocks)
    return st.one_of(
        junk, st.integers(), st.floats(),
        st.integers(0, 4).filter(lambda n: n != len(blocks)).map(lambda n: blocks[:1] * n),
        bad_entry(blocks[-1], valid).map(lambda b: blocks[:-1] + [b]),
    )


def _coupling_shape(shape):
    return shape == (1, 1) or (len(shape) == 3 and shape[1:] == (1, 1))


def _line_shape(shape):
    return shape == (5, 1, 1)


def _grid_spec(i):
    return lambda v: tk.GridSpec(*GRID[:i], v, *GRID[i + 1:])


def _returns(values):
    return lambda zm, zp: values


def _grid_betas(shape):
    return tk.field_from_closure(LIOUVILLE.system, tk.GridSpec(0.0, 2.0, 0.25, 0.25, *shape),
                                 liouville_closure()).betas


POINT = liouville_closure()(0.0, 2.0)  # the two Liouville blocks at one point
IDENTITY = (lambda z: z, lambda z: 1.0)  # the (F, dF) pair of the identity map


def _pair_returning(value, which):
    """The identity pair with its F (``which`` 0) or dF (1) returning ``value``."""
    pair = list(IDENTITY)
    pair[which] = lambda z: value
    return tuple(pair)


# a value that is not an (F, dF) pair of callables, or a pair whose F or dF
# returns something other than finite reals that broadcast to a 5-sample line
bad_return = st.one_of(st.none(), st.just(object()), st.text(max_size=3), st.booleans(),
                       st.complex_numbers(), non_finite,
                       st.sampled_from([(2,), (3,), (5, 1), (1, 5), (2, 5)]).map(np.ones))
bad_pair = st.one_of(junk, st.integers(), st.just(IDENTITY[:1]), st.just(IDENTITY * 2),
                     st.just((IDENTITY[0], 1.0)), st.builds(_pair_returning, bad_return, st.integers(0, 1)))

# the evaluators take a field and couplings; the Liouville system has two
# independent blocks, so these fields hold one too few and one too many
SHORT_FIELD = tk.GridField(SPEC, LIOUVILLE.field.betas[:1])
LONG_FIELD = tk.GridField(SPEC, LIOUVILLE.field.betas + LIOUVILLE.field.betas[:1])
bad_field = st.one_of(junk, st.sampled_from([SHORT_FIELD, LONG_FIELD]))
# couplings of the right system built without make_c_blocks: no entries, 2 x 2
# entries where the Liouville system has 1 x 1 ones, two C_+ entries, a family
# that is no list, a nested list for an array, a NaN block and an infinite C_+ line
HAND_C = [
    tk.CBlocks(LIOUVILLE.system, (), ()),
    tk.CBlocks(LIOUVILLE.system, (np.eye(2),), (np.eye(2),)),
    tk.CBlocks(LIOUVILLE.system, LIOUVILLE.c.minus, LIOUVILLE.c.plus * 2),
    tk.CBlocks(LIOUVILLE.system, LIOUVILLE.c.minus, 5),
    tk.CBlocks(LIOUVILLE.system, ([[1.0]],), LIOUVILLE.c.plus),
    tk.CBlocks(LIOUVILLE.system, (np.array([[np.nan]]),), LIOUVILLE.c.plus),
    tk.CBlocks(LIOUVILLE.system, LIOUVILLE.c.minus, (np.full((5, 1, 1), np.inf),)),
]
bad_c = st.one_of(junk, st.just(OTHER_C), st.sampled_from(HAND_C))
UNIT_GAUGE = [np.eye(1), np.eye(1)]
EVALUATORS = {
    "residual_full": tk.residual_full,
    "block_residuals": tk.block_residuals,
    "connection": tk.connection,
    "gauge_transform": lambda system, field, c: tk.gauge_transform(system, field, c, UNIT_GAUGE, UNIT_GAUGE),
}


CALLS = {
    "SeriesTag.series": (st.one_of(junk.filter(lambda v: v not in ("A", "B", "C", "D")),
                                   st.integers(), st.lists(st.sampled_from("ABCD"), min_size=1)),
                         lambda v: tk.SeriesTag(v, 1)),
    "SeriesTag.rank": (st.one_of(non_integral, st.integers(max_value=0)),
                       lambda v: tk.SeriesTag("A", v)),
    "DynkinLabels.tag": (bad_tag, lambda v: DynkinLabels(v, (1,))),
    "DynkinLabels.labels": (bad_ints, lambda v: DynkinLabels(TAG, v)),
    "BlockStructure.tag": (bad_tag, lambda v: BlockStructure(v, (1, 1), (1,))),
    "BlockStructure.sizes": (bad_ints, lambda v: BlockStructure(TAG, v, (1,))),
    "BlockStructure.steps": (bad_ints, lambda v: BlockStructure(TAG, (1, 1), v)),
    "build_system.tag": (bad_tag, lambda v: tk.build_system(v, (1, 1))),
    "build_system.sizes": (bad_ints, lambda v: tk.build_system(TAG, v)),
    **{f"GridSpec.{i}": (bad_real, _grid_spec(i)) for i in range(4)},
    **{f"GridSpec.{i}": (st.one_of(non_integral, st.integers(max_value=2)), _grid_spec(i))
       for i in (4, 5)},
    "make_c_blocks.minus": (bad_family([[[-1.0]]], _coupling_shape),
                            lambda v: tk.make_c_blocks(LIOUVILLE.system, v, [[[1.0]]])),
    "make_c_blocks.plus": (bad_family([[[1.0]]], _coupling_shape),
                           lambda v: tk.make_c_blocks(LIOUVILLE.system, [[[-1.0]]], v)),
    "field_from_closure.closure": (bad_family(POINT, lambda shape: shape == (1, 1)).map(_returns),
                                   lambda v: tk.field_from_closure(LIOUVILLE.system, SPEC, v)),
    "GridField.spec": (st.one_of(junk, st.just(GRID)), lambda v: tk.GridField(v, LIOUVILLE.field.betas)),
    "GridField.betas": (st.one_of(
        junk, st.integers(), st.floats(),
        st.sampled_from([(3, 3), (5, 4), (4, 5), (7, 7)]).map(_grid_betas),
        bad_entry(LIOUVILLE.field.betas[-1], lambda shape: False).map(
            lambda b: [LIOUVILLE.field.betas[0], b])),
        lambda v: tk.GridField(SPEC, v)),
    "CharacteristicData.spec": (st.one_of(junk, st.just(GRID)),
                                lambda v: CharacteristicData(v, DATA.left, DATA.bottom)),
    "CharacteristicData.left": (bad_family(DATA.left, _line_shape),
                                lambda v: CharacteristicData(SPEC, v, DATA.bottom)),
    "CharacteristicData.bottom": (bad_family(DATA.bottom, _line_shape),
                                  lambda v: CharacteristicData(SPEC, DATA.left, v)),
    "conformal_transform.f_minus": (bad_pair, lambda v: tk.conformal_transform(
        LIOUVILLE.system, liouville_closure(), v, IDENTITY, SPEC)),
    "conformal_transform.f_plus": (bad_pair, lambda v: tk.conformal_transform(
        LIOUVILLE.system, liouville_closure(), IDENTITY, v, SPEC)),
    "march.system": (st.one_of(junk, st.just(OTHER)), lambda v: march(v, LIOUVILLE.c, DATA)),
    "march.c": (bad_c, lambda v: march(LIOUVILLE.system, v, DATA)),
    "march.data": (st.one_of(junk, st.just(CharacteristicData(SPEC, DATA.left[:1], DATA.bottom[:1]))),
                   lambda v: march(LIOUVILLE.system, LIOUVILLE.c, v)),
    **{f"{name}.field": (bad_field, lambda v, f=f: f(LIOUVILLE.system, v, LIOUVILLE.c))
       for name, f in EVALUATORS.items()},
    **{f"{name}.c": (bad_c, lambda v, f=f: f(LIOUVILLE.system, LIOUVILLE.field, v))
       for name, f in EVALUATORS.items()},
}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), slot=st.sampled_from(sorted(CALLS)))
def test_malformed_input_is_a_value_error(data, slot):
    strategy, call = CALLS[slot]
    value = data.draw(strategy, label=slot)
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("c", HAND_C, ids=range(len(HAND_C)))
@pytest.mark.parametrize("slot", [*EVALUATORS, "march"])
def test_every_hand_built_coupling_is_rejected_by_every_evaluator(slot, c):
    # the drawn test above reaches each HAND_C entry only by chance
    call = CALLS[f"{slot}.c"][1]
    with pytest.raises(ValueError):
        call(c)


@pytest.mark.parametrize("call, error", [
    (lambda: tk.SeriesTag(["A"], 1), ValueError),
    (lambda: DynkinLabels("A", (1,)), GradationError),
    (lambda: BlockStructure(None, (1, 1), (1,)), GradationError),
    (lambda: tk.build_system(None, (1, 1)), GradationError),
    (lambda: tk.build_system(TAG, None), GradationError),
    (lambda: tk.make_c_blocks(LIOUVILLE.system, 5, LIOUVILLE.c.plus), tk.ShapeError),
    (lambda: march(LIOUVILLE.system, None, DATA), ValueError),
], ids=["series-list", "labels-str-tag", "blocks-none-tag", "build-none-tag", "build-none-sizes",
        "coupling-family-int", "march-none-couplings"])
def test_value_of_the_wrong_type_is_rejected(call, error):
    # each raised a TypeError (an unhashable series, iterating None or 5) or an AttributeError
    with pytest.raises(error):
        call()


def test_characteristic_data_takes_nested_lists():
    lists = CharacteristicData(SPEC, [line.tolist() for line in DATA.left],
                               [line.tolist() for line in DATA.bottom])
    for got, sent in zip(lists.left + lists.bottom, DATA.left + DATA.bottom):
        assert got.dtype == complex and np.array_equal(got, sent)
    result = march(LIOUVILLE.system, LIOUVILLE.c, lists)
    expected = march(LIOUVILLE.system, LIOUVILLE.c, DATA)
    assert all(np.array_equal(a, b) for a, b in zip(result.field.betas, expected.field.betas))


def test_a_bool_is_not_an_integer():
    with pytest.raises(GradationError):
        DynkinLabels(TAG, (True,))
    with pytest.raises(GradationError):
        tk.build_system(TAG, (True, True))


@pytest.mark.parametrize("values", [[None, None], [np.eye(1)]], ids=["none-blocks", "one-block"])
def test_closure_output_is_checked(values):
    with pytest.raises(tk.ShapeError):
        tk.field_from_closure(liouville_system(), SPEC, _returns(values))


def test_field_on_another_grid_is_rejected_when_built():
    betas = _grid_betas((3, 3))
    with pytest.raises(tk.ShapeError, match=r"GridField beta 1 has shape \(3, 3, 1, 1\).*\(5, 5\)"):
        tk.GridField(SPEC, betas)
