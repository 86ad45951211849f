"""How values are held: frozen objects with slots and no ``__dict__``.

A value is three such objects, an ``Fnnn`` of a ``NormalParams`` and a
``MembershipTriple``. They compare, hash, print, pickle, copy and ``replace``
as frozen dataclasses do.
"""

import copy
import dataclasses
import pickle
import weakref

import pytest

import engineers_case as case
from fnnmadm import (
    Fnnn,
    FnnnGenConfig,
    MembershipTriple,
    NormalParams,
    PipelineConfig,
    SpreadNonPositive,
    boxplus,
    fnnwa,
    gen_fnnn,
    ideal_values,
    make_decision_matrix,
    make_fnnn,
    membership_at,
    normalize,
    power,
    run_pipeline,
    scale,
)

GOOD, POOR = make_fnnn(0.85, 0.5, 0.88, 0.8, 0.8), make_fnnn(0.55, 0.5, 0.7, 0.9, 0.9)
PARTS = [GOOD, GOOD.normal, GOOD.mu]  # one object of each type


def _matrix():
    cells = [[make_fnnn(*c) for c in row] for row in case.RAW_CELLS]
    return make_decision_matrix(case.ALTERNATIVES, case.ATTRIBUTES, cells, case.WEIGHTS)


def _values_by_path():
    """A value, or a triple, from each path that makes one."""
    dm = _matrix()
    report = run_pipeline(dm, PipelineConfig(operator="gfnnwg", lam=2.5))
    return {
        "make_fnnn": GOOD,
        "constructors": Fnnn(NormalParams(1, 2), MembershipTriple(0.5, 0.25, 0.125)),
        "boxplus": boxplus(GOOD, POOR, 2),
        "scale": scale(0.5, GOOD, 3),
        "power": power(2.0, GOOD),
        "fnnwa": fnnwa([GOOD, POOR], [0.5, 0.5], 2),
        "ideal_values": ideal_values([GOOD, POOR])[0],
        "gen_fnnn": gen_fnnn(FnnnGenConfig(seed=3), 1)[0],
        "report aggregate": report.aggregates[0],
        "report ideal": report.positive_ideal,
        "dm.cells": dm.cells[1][0],
        "dm.row": dm.row(0)[1],
        "normalized cells": normalize(dm).cells[0][0],
        "membership_at": membership_at(GOOD, 0.7),
    }


VALUES = _values_by_path()


def _parts(obj):
    return (obj, obj.normal, obj.mu) if isinstance(obj, Fnnn) else (obj,)


@pytest.mark.parametrize("path", VALUES)
def test_a_value_from_every_path_has_no_dict(path):
    for part in _parts(VALUES[path]):
        assert type(part) in (Fnnn, NormalParams, MembershipTriple)
        assert not hasattr(part, "__dict__"), (path, type(part).__name__)
        with pytest.raises(TypeError):  # no slot for weak references
            weakref.ref(part)
        with pytest.raises(AttributeError):  # and none for an ad-hoc attribute
            object.__setattr__(part, "note", 1)


@pytest.mark.parametrize("record", PARTS, ids=lambda r: type(r).__name__)
def test_round_trips_are_equal_and_hash_alike(record):
    made = [pickle.loads(pickle.dumps(record, protocol)) for protocol in
            range(pickle.HIGHEST_PROTOCOL + 1)]
    made += [copy.copy(record), copy.deepcopy(record), dataclasses.replace(record)]
    for other in made:
        assert type(other) is type(record) and other == record
        assert hash(other) == hash(record) and repr(other) == repr(record)
        assert not hasattr(other, "__dict__")


def test_replace_checks_a_field_as_the_constructor_does():
    assert dataclasses.replace(GOOD.normal, xi=2) == NormalParams(0.85, 2.0)
    assert type(dataclasses.replace(GOOD.mu, t=1).t) is float
    with pytest.raises(SpreadNonPositive):
        dataclasses.replace(GOOD.normal, xi=0.0)


@pytest.mark.parametrize("record", PARTS, ids=lambda r: type(r).__name__)
def test_a_field_can_be_neither_assigned_nor_deleted(record):
    for f in dataclasses.fields(record):
        before = getattr(record, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
        assert getattr(record, f.name) is before
    for act in (lambda: setattr(record, "note", 1), lambda: delattr(record, "note")):
        with pytest.raises(dataclasses.FrozenInstanceError):  # nor a name that is no field
            act()
    assert not hasattr(record, "note")
