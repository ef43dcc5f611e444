"""Plain record classes: construction, equality and immutability."""

import pytest

from nclab.centralizer import PipelineReport
from nclab.diagonalize import DiagonalReport
from nclab.fields import QQ
from nclab.genmat import AnnihilatorResult
from nclab.quantize import CorrespondenceReport
from nclab.records import Record
from nclab.rings import Variable
from nclab.serialize import ALReport


class TestVariable:
    def test_hash_is_the_field_tuple_hash(self):
        for v in [Variable.entry(2, 1, 3), Variable.aux("lam", 4), Variable("aux", name="y", index=1)]:
            assert hash(v) == hash((v.kind, v.gen, v.row, v.col, v.name, v.index))
        assert hash(Variable.entry(1, 2, 3)) == hash(("entry", 1, 2, 3, "", 0))

    def test_equality_is_field_wise(self):
        assert Variable.entry(1, 2, 3) == Variable("entry", 1, 2, 3)
        assert Variable.entry(1, 2, 3) != Variable.entry(1, 3, 2)
        assert Variable.aux("x", 1) != Variable.aux("y", 1)
        # a field outside the sort key still takes part in equality
        assert Variable("entry", 1, 1, 1) != Variable("entry", 1, 1, 1, name="z")
        assert Variable.entry(1, 1, 1) != ("entry", 1, 1, 1, "", 0)
        assert len({Variable.entry(1, 1, 1), Variable("entry", gen=1, row=1, col=1)}) == 1

    def test_order_is_by_sort_key(self):
        ordered = [
            Variable.entry(1, 1, 1),
            Variable.entry(1, 1, 2),
            Variable.entry(2, 1, 1),
            Variable.aux("lam", 1),
            Variable.aux("lam", 2),
            Variable.aux("x", 1),
        ]
        assert sorted(reversed(ordered)) == ordered
        assert Variable.aux("lam", 1) > Variable.entry(9, 9, 9)

    def test_immutable(self):
        v = Variable.entry(1, 1, 1)
        with pytest.raises(AttributeError):
            v.gen = 2
        with pytest.raises(AttributeError):
            del v.gen
        with pytest.raises(AttributeError):
            v.extra = 1
        assert v.gen == 1 and hash(v) == hash(Variable.entry(1, 1, 1))

    def test_repr_names_the_fields(self):
        assert repr(Variable.aux("lam", 2)) == (
            "Variable(kind='aux', gen=0, row=0, col=0, name='lam', index=2)"
        )


class TestRecordConstruction:
    def test_positional_keyword_and_default(self):
        a = AnnihilatorResult(False, None, None, 2, 3)
        b = AnnihilatorResult(found=False, poly=None, total_degree=None, n=2, searched_bound=3)
        assert a == b and a.searched_bound == 3
        # no field has a default: a record is built once, whole
        with pytest.raises(TypeError, match="missing field 'outcomes'"):
            PipelineReport("f", "g", True, None)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ALReport(2, 4, True, True),  # missing field
            lambda: ALReport(2, 4, True, True, None, "extra"),  # too many fields
            lambda: ALReport(2, 4, True, True, None, bogus=1),  # unknown field
            lambda: ALReport(2, 4, True, True, n=2),  # given twice
            lambda: Variable("entry", 1, 1, 1, "", 0, None),
            lambda: Variable("entry", _key=()),  # private slots are not fields
        ],
    )
    def test_bad_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_equality_needs_the_same_class(self):
        assert ALReport(2, 4, True, True, None) == ALReport(2, 4, True, True, None)
        assert ALReport(2, 4, True, True, None) != ALReport(2, 4, True, True, False)
        assert AnnihilatorResult(False, None, None, 2, 3) != ALReport(False, None, None, 2, 3)

    def test_every_record_is_frozen(self):
        # the imports above load every module that defines a record
        classes = _record_classes(Record)
        assert {PipelineReport, DiagonalReport, CorrespondenceReport, ALReport} <= set(classes)
        for cls in classes:
            rec = cls(*range(len(cls._fields)))
            for name in cls._fields:
                with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                    setattr(rec, name, None)
                with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                    delattr(rec, name)
            assert [getattr(rec, name) for name in cls._fields] == list(range(len(cls._fields)))

    def test_records_have_no_instance_dict(self):
        for rec in [ALReport(2, 4, True, True, None), Variable.entry(1, 1, 1)]:
            with pytest.raises(AttributeError):
                rec.__dict__


def _record_classes(cls):
    """Every subclass of ``cls``, at any depth."""
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _record_classes(sub)
    return out


def _frozen_instances():
    """One instance of each class built on ``records.Frozen``, with one of its slots."""
    from nclab.centralizer import bergman_check
    from nclab.diagonalize import SeriesFieldMatrix
    from nclab.freealg import FreePoly
    from nclab.genmat import GenericMatrix
    from nclab.quantize import FormalSeries, StarContext, pairing_tensor
    from nclab.rings import CommPoly, RationalFunction

    x, y = Variable.aux("x", 1), Variable.aux("y", 1)
    tensor = pairing_tensor([x], [y], QQ)
    one = CommPoly.one(QQ)
    matrix = GenericMatrix.identity(2, QQ, RationalFunction)
    return [
        (QQ, "p"),
        (QQ.scalar(3), "value"),
        (one, "terms"),
        (FreePoly(2, QQ, {(1,): 1}), "s"),
        (matrix, "rows"),
        (tensor, "entries"),
        (StarContext(tensor, 2), "order"),
        (FormalSeries.from_poly(one, 1), "coeffs"),
        (SeriesFieldMatrix.from_poly(matrix, 1), "coeffs"),
        (RationalFunction.one(QQ), "num"),
        (CorrespondenceReport(True, None, None), "holds"),
        (PipelineReport("f", "g", False, None, [], None, "not applicable", "c"), "outcomes"),
        (bergman_check(FreePoly(2, QQ, {(1,): 1}), 0), "dims"),
        (DiagonalReport(matrix, matrix, 0, [QQ.one]), "achieved_order"),
    ]


@pytest.mark.parametrize("index", range(14), ids=[
    "Field", "Scalar", "CommPoly", "FreePoly", "GenericMatrix", "PoissonTensor",
    "StarContext", "FormalSeries", "SeriesFieldMatrix", "RationalFunction",
    "CorrespondenceReport", "PipelineReport", "BergmanReport", "DiagonalReport",
])
def test_frozen_slots_can_be_neither_assigned_nor_deleted(index):
    obj, slot = _frozen_instances()[index]
    before = getattr(obj, slot)
    message = f"^{type(obj).__name__} is immutable$"
    with pytest.raises(AttributeError, match=message):
        setattr(obj, slot, before)
    try:
        with pytest.raises(AttributeError, match=message):
            delattr(obj, slot)
    finally:
        # a deleted slot of the interned QQ would break every later test
        object.__setattr__(obj, slot, before)
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1
