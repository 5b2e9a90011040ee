"""Frozen records behave as the frozen dataclasses they replace.

Each record class is checked against its twin, a
``dataclasses.make_dataclass(..., frozen=True)`` class built from the
same field names, annotations and defaults.
"""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

import physarum
from physarum import DiscreteConfig, LinearProgram, _record, enumerate_polyhedron, evaluate, validate
from physarum.cli_io import ProblemFile
from physarum.errors import BadEpsError

RECORDS = [getattr(physarum, name) for name in physarum.__all__
           if hasattr(getattr(physarum, name), "__record_fields__")] + [ProblemFile]

# Field values, and changed ones, that pass the two records' __post_init__
# checks; every other record takes the integers 0, 1, ... in field order,
# and -1 for a changed field.
VALID = {
    "DiscreteConfig": {"eps": 0.2, "h": 0.5, "start": None, "max_iters": 10, "trace_every": 2},
    "FlowConfig": {"x0": (1.0, 2.0), "t_end": 1.0, "sample_dt": 0.5},
}
CHANGED = {"eps": 0.25, "trace_every": 3, "x0": (3.0,), "sample_dt": 0.25}


def test_every_result_record_is_covered():
    assert sorted(cls.__name__ for cls in RECORDS) == [
        "BoundReport", "CertReport", "DiscreteConfig", "DynamicsEval", "FlowConfig", "FlowTrace",
        "LinearProgram", "OracleResult", "Params", "PathPoint", "ProblemFile", "Solution", "Trace",
        "ValidatedLP",
    ]


def twin(cls):
    """The frozen dataclass of cls's fields, annotations, defaults and __post_init__."""
    specs = [(name, cls.__annotations__[name], dataclasses.field(default=cls.__dict__[name]))
             if name in cls.__dict__ else (name, cls.__annotations__[name]) for name in _record.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def sample(cls, changed=None):
    """Keyword arguments for cls: VALID's or the field indices, with ``changed`` set to a new value."""
    kwargs = dict(VALID.get(cls.__name__) or {name: i for i, name in enumerate(_record.fields(cls))})
    if changed is not None:
        kwargs[changed] = CHANGED[changed] if cls.__name__ in VALID else -1
    return kwargs


def raised(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return info.type, str(info.value)


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pair(request):
    return request.param, twin(request.param)


def test_signature_is_the_dataclasses(pair):
    cls, dc = pair
    params = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params == [(p.name, p.kind, p.default) for p in inspect.signature(dc).parameters.values()]
    assert [name for name, _, _ in params] == list(_record.fields(cls))


def test_repr_eq_and_hash_are_the_dataclasses(pair):
    cls, dc = pair
    first = _record.fields(cls)[0]
    a, b, other = cls(**sample(cls)), cls(**sample(cls)), cls(**sample(cls, changed=first))
    ta, tb, tother = dc(**sample(cls)), dc(**sample(cls)), dc(**sample(cls, changed=first))
    assert repr(a) == repr(ta) and repr(other) == repr(tother)
    assert (a == b, a != b, a == other, a != other) == (ta == tb, ta != tb, ta == tother, ta != tother)
    assert (a == b, a == other) == (True, False)
    assert hash(a) == hash(ta) == hash(b) and hash(other) == hash(tother)
    # Another record class of the same name and fields is never equal, nor is the dataclass.
    same_fields = _record.record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    assert a != same_fields(**sample(cls)) and a != ta
    assert not (a == same_fields(**sample(cls))) and not (a == ta)


def test_asdict_replace_pickle_and_copy(pair):
    cls, dc = pair
    a, ta = cls(**sample(cls)), dc(**sample(cls))
    assert list(_record.asdict(a).items()) == list(dataclasses.asdict(ta).items())
    last = _record.fields(cls)[-1]
    new = sample(cls, changed=last)[last]
    assert repr(_record.replace(a, **{last: new})) == repr(dataclasses.replace(ta, **{last: new}))
    assert _record.replace(a, **{last: new}) == cls(**sample(cls, changed=last))
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
        assert type(copied) is cls and copied == a and copied is not a


def test_fields_can_be_neither_assigned_nor_deleted(pair):
    cls, dc = pair
    a, ta = cls(**sample(cls)), dc(**sample(cls))
    for name in [*_record.fields(cls), "not_a_field"]:
        got = raised(setattr, a, name, 1)
        assert issubclass(got[0], AttributeError) and got[1] == raised(setattr, ta, name, 1)[1]
        got = raised(delattr, a, name)
        assert issubclass(got[0], AttributeError) and got[1] == raised(delattr, ta, name)[1]
    assert list(_record.asdict(a).items()) == list(sample(cls).items())


def test_bad_arguments_raise_the_dataclasses_type_errors(pair):
    cls, dc = pair
    kwargs = sample(cls)
    first = _record.fields(cls)[0]
    cases = [((), {**kwargs, "not_a_field": 1}), ((kwargs[first],), kwargs), (tuple(kwargs.values()) + (1,), {})]
    if cls.__init__.__defaults__ is None or len(cls.__init__.__defaults__) < len(kwargs):
        cases.append(((), {}))  # missing arguments
    for args, kw in cases:
        got = raised(cls, *args, **kw)
        assert got[0] is TypeError and got == raised(dc, *args, **kw)


def test_replace_runs_post_init_again():
    config = DiscreteConfig(eps=0.1)
    with pytest.raises(BadEpsError):
        _record.replace(config, eps=0.7)
    assert _record.replace(config, eps=0.3) == DiscreteConfig(eps=0.3)
    with pytest.raises(TypeError):
        _record.replace(config, not_a_field=1)


def test_cached_properties_are_computed_once():
    lp = validate(LinearProgram.from_lists([[1, 1]], [1], [1, 2]))
    assert "A" not in vars(lp)
    assert lp.A is lp.A and "A" in vars(lp)
    res = enumerate_polyhedron(lp)
    assert res.vertices is res.vertices and "vertices" in vars(res)
    ev = evaluate(lp, np.array([0.5, 0.5]))
    assert ev.energy_flux == ev.energy_flux and "energy_flux" in vars(ev)
    # A cached value is not a field: equality ignores it, and a pickle carries it along.
    assert lp == validate(LinearProgram.from_lists([[1, 1]], [1], [1, 2]))
    assert pickle.loads(pickle.dumps(lp)) == lp and pickle.loads(pickle.dumps(res)).opt == res.opt
