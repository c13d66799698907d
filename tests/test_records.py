"""The result records: equality and hash by fields, frozen fields, repr,
keyword and positional construction, defaults, copies and pickles."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from wramsey import (
    BoundsReport,
    ColoringPackingStats,
    Graph,
    SubgraphDescriptor,
    SubgraphWeights,
    TwoColoring,
    WeightAssignment,
    WramResult,
)
from wramsey.cli import RunReport
from wramsey.errors import InputError
from wramsey.exactnum import LpSolution, LpStatus

# (class, every field by keyword in field order, repr).  The reprs are the
# ones the dataclass versions of these classes printed.
RECORDS = [
    (LpSolution,
     dict(status=LpStatus.OPTIMAL, optimum=F(3, 2), primal=(F(1), F(1, 2)), dual=(F(1, 2),)),
     "LpSolution(status=<LpStatus.OPTIMAL: 'optimal'>, optimum=Fraction(3, 2), "
     "primal=(Fraction(1, 1), Fraction(1, 2)), dual=(Fraction(1, 2),))"),
    (Graph, dict(n=3, mask=5), "Graph(n=3, mask=5)"),
    (TwoColoring, dict(red=Graph(3, 5)), "TwoColoring(red=Graph(n=3, mask=5))"),
    (WeightAssignment, dict(n=3, weights={(1, 0): 1, (1, 2): F(1, 2)}),
     "WeightAssignment(n=3, weights={(0, 1): Fraction(1, 1), (0, 2): Fraction(0, 1), "
     "(1, 2): Fraction(1, 2)})"),
    (WramResult,
     dict(n=3, k=3, value=F(3), r_value=F(1), witness_coloring=TwoColoring(Graph(3, 0)),
          witness_weights=WeightAssignment(3, {(0, 1): 1}), partial=True, num_colorings=2),
     "WramResult(n=3, k=3, value=Fraction(3, 1), r_value=Fraction(1, 1), "
     "witness_coloring=TwoColoring(red=Graph(n=3, mask=0)), "
     "witness_weights=WeightAssignment(n=3, weights={(0, 1): Fraction(1, 1), "
     "(0, 2): Fraction(0, 1), (1, 2): Fraction(0, 1)}), partial=True, num_colorings=2)"),
    (SubgraphDescriptor, dict(vertices=(2, 0, 1), edges=((1, 0), (2, 0))),
     "SubgraphDescriptor(vertices=(0, 1, 2), edges=((0, 1), (0, 2)))"),
    (SubgraphWeights,
     dict(graph=Graph(3, 7), weights={SubgraphDescriptor((0, 1, 2), ((0, 1),)): 1,
                                      SubgraphDescriptor((0, 1, 2), ((1, 2),)): 0}),
     "SubgraphWeights(graph=Graph(n=3, mask=7), weights={SubgraphDescriptor("
     "vertices=(0, 1, 2), edges=((0, 1),)): Fraction(1, 1)})"),
    (ColoringPackingStats, dict(tau_c=1, tau_star_sum=F(1, 2)),
     "ColoringPackingStats(tau_c=1, tau_star_sum=Fraction(1, 2))"),
    (BoundsReport,
     dict(k=4, c_k=F(607, 2550), lower_bound=F(2550, 607), upper_bound=F(24, 5),
          table_rows=((3, F(1, 5), 5), (4, F(2, 15), 17))),
     "BoundsReport(k=4, c_k=Fraction(607, 2550), lower_bound=Fraction(2550, 607), "
     "upper_bound=Fraction(24, 5), table_rows=((3, Fraction(1, 5), 5), (4, Fraction(2, 15), 17)))"),
    (RunReport, dict(command="verify", inputs={"n": 4}, result={"ok": True}, elapsed_ms=7),
     "RunReport(command='verify', inputs={'n': 4}, result={'ok': True}, elapsed_ms=7)"),
]
# A dict field makes a frozen record unhashable, as a mutable one is.
UNHASHABLE = {WeightAssignment, WramResult, SubgraphWeights, RunReport}
each_record = pytest.mark.parametrize("cls, fields, text", RECORDS,
                                      ids=[cls.__name__ for cls, _, _ in RECORDS])


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@each_record
def test_records_are_equal_by_fields_within_one_class(cls, fields, text):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and a is not b
    assert a != _values(a, fields)
    assert a.__eq__(_values(a, fields)) is NotImplemented
    assert a != type("Twin", (cls,), {"__slots__": ()})(**fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_values(a, fields))
        assert len({a, b}) == 1


@each_record
def test_record_fields_are_frozen_except_subgraph_weights(cls, fields, text):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    if cls is SubgraphWeights:
        record.graph = Graph(3, 3)
        assert record.graph == Graph(3, 3)
        return
    for attempt in (lambda: setattr(record, name, value), lambda: delattr(record, name),
                    lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert record == cls(**fields)


@each_record
def test_record_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@each_record
def test_record_copies_and_pickles_are_equal(cls, fields, text):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and twin is not record
        assert repr(twin) == text
    name = next(iter(fields))
    assert getattr(copy.copy(record), name) is getattr(record, name)


def test_record_defaults():
    assert LpSolution(LpStatus.INFEASIBLE) == LpSolution(LpStatus.INFEASIBLE, None, (), ())
    result = WramResult(3, 3, F(3), F(1), TwoColoring(Graph(3, 0)), WeightAssignment(3, {}))
    assert (result.partial, result.num_colorings) == (False, 0)
    assert RunReport("verify", {}, {}).elapsed_ms is None


def test_replace_builds_and_checks_through_the_constructor():
    g = Graph(3, 5)
    assert g._replace(mask=1) == Graph(3, 1) and g == Graph(3, 5)
    with pytest.raises(InputError):
        g._replace(mask=1 << 3)
    with pytest.raises(TypeError):
        g._replace(size=3)
    report = RunReport("verify", {}, {})
    assert report._replace(elapsed_ms=5) == RunReport("verify", {}, {}, 5)
