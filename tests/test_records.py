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
    def test_hash_is_the_item_tuple_hash(self):
        for v in [Variable.entry(2, 1, 3), Variable.aux("lam", 4), Variable.aux("y", 1)]:
            assert hash(v) == hash(tuple(v))
        assert hash(Variable.entry(1, 2, 3)) == hash((0, 1, 2, 3))
        assert hash(Variable.aux("lam", 4)) == hash((1, "lam", 4))

    def test_equality_is_item_wise(self):
        assert Variable.entry(1, 2, 3) == Variable.entry(1, 2, 3)
        assert Variable.entry(1, 2, 3) != Variable.entry(1, 3, 2)
        assert Variable.aux("x", 1) != Variable.aux("y", 1)
        # the kind tag keeps an entry unequal to every auxiliary symbol
        assert Variable.entry(1, 1, 1) != Variable.aux("x", 1)
        # a Variable equals the plain tuple of its items
        assert Variable.entry(1, 1, 1) == (0, 1, 1, 1)
        assert len({Variable.aux("lam", 2), (1, "lam", 2)}) == 1

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
        with pytest.raises(TypeError):
            v[1] = 2
        with pytest.raises(AttributeError):
            v.extra = 1
        assert v[1] == 1 and hash(v) == hash(Variable.entry(1, 1, 1))

    def test_repr_evaluates_back(self):
        assert repr(Variable.aux("lam", 2)) == "Variable.aux('lam', 2)"
        assert repr(Variable.entry(1, 2, 3)) == "Variable.entry(1, 2, 3)"
        for v in [Variable.aux("lam", 2), Variable.entry(1, 2, 3)]:
            back = eval(repr(v), {"Variable": Variable})
            assert back == v and type(back) is Variable


class TestRecordConstruction:
    def test_positional_keyword_and_default(self):
        a = AnnihilatorResult(None, 2, 3)
        b = AnnihilatorResult(poly=None, n=2, searched_bound=3)
        assert a == b and a.searched_bound == 3
        # no field has a default: a record is built once, whole
        with pytest.raises(TypeError, match="missing field 'outcomes'"):
            PipelineReport("f", "g", None)

    def test_a_derived_fact_is_no_field(self):
        # found is poly is not None, so a record cannot say both found and no poly
        with pytest.raises(TypeError, match="has no field 'found'"):
            AnnihilatorResult(None, 2, 3, found=True)
        assert AnnihilatorResult(None, 2, 3).found is False
        assert "found" not in AnnihilatorResult._fields

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ALReport(2, True),  # missing field
            lambda: ALReport(2, True, None, "extra"),  # too many fields
            lambda: ALReport(2, True, None, bogus=1),  # unknown field
            lambda: ALReport(2, True, n=2),  # given twice
            lambda: Variable.entry(1, 1),  # missing index
            lambda: Variable.aux("lam", 1, 2),  # too many indices
        ],
    )
    def test_bad_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_equality_needs_the_same_class(self):
        assert ALReport(2, True, None) == ALReport(2, True, None)
        assert ALReport(2, True, None) != ALReport(2, True, False)
        assert AnnihilatorResult(None, 2, 3) != ALReport(None, 2, 3)

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
        for rec in [ALReport(2, True, None), Variable.entry(1, 1, 1)]:
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
        (matrix, "entries"),
        (tensor, "entries"),
        (StarContext(tensor, 2), "order"),
        (FormalSeries.from_poly(one, 1), "coeffs"),
        (SeriesFieldMatrix.from_poly(matrix, 1), "coeffs"),
        (RationalFunction.one(QQ), "num"),
        (CorrespondenceReport(None, None), "bracket"),
        (PipelineReport("f", "g", None, [], None), "outcomes"),
        (bergman_check(FreePoly(2, QQ, {(1,): 1}), 0), "dims"),
        (DiagonalReport(matrix, matrix), "diagonal"),
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


def _value_table():
    """Class name -> a builder of two variants of one value that differ in one slot."""
    from nclab.diagonalize import SeriesFieldMatrix
    from nclab.freealg import FreePoly
    from nclab.genmat import BivariatePoly, FormalSeries, GenericMatrix
    from nclab.quantize import PoissonTensor
    from nclab.rings import CommPoly, RationalFunction

    x = CommPoly.variable(Variable.aux("x", 1), QQ)
    u, v = (CommPoly.variable(Variable.aux("lam", i), QQ) for i in (1, 2))
    one = RationalFunction.one(QQ)
    zero_matrix = GenericMatrix.zeros(2, QQ, RationalFunction)

    def fraction_matrix(k):
        return GenericMatrix.diagonal([one, RationalFunction.from_poly(x.scale(1 + k))])

    return {
        "Scalar": lambda k: QQ.scalar(3 + k),  # value
        "CommPoly": lambda k: x.scale(1 + k),  # terms
        "FreePoly": lambda k: FreePoly(2 + k, QQ, {(1,): 1}),  # s
        "BivariatePoly": lambda k: BivariatePoly(QQ, {(1, 0): 1 + k}),  # terms
        "GenericMatrix[CommPoly]": lambda k: GenericMatrix.diagonal([x, x.scale(1 + k)]),  # entries
        "GenericMatrix[RationalFunction]": fraction_matrix,  # entries
        "FormalSeries": lambda k: FormalSeries([x, x.scale(k)]),  # coeffs
        "SeriesFieldMatrix": lambda k: SeriesFieldMatrix(  # coeffs
            [fraction_matrix(0), fraction_matrix(0) if k else zero_matrix]),
        "RationalFunction": lambda k: RationalFunction(CommPoly.one(QQ), (u - v) ** (1 + k)),  # exps
        "PoissonTensor": lambda k: PoissonTensor(  # entries
            (Variable.aux("x", 1), Variable.aux("y", 1)), {(0, 1): 1 + k}, QQ),
        "ALReport": lambda k: ALReport(2, True, bool(k)),  # sharpness_nonzero
    }


def _hash_or_error(obj):
    from nclab.genmat import FormalSeries, GenericMatrix

    if isinstance(obj, (GenericMatrix, FormalSeries)):  # the tracer hashes annihilator inputs
        return hash(obj)
    try:
        return hash(obj)
    except TypeError as exc:  # a value with a dict in a slot is unhashable
        return type(exc)


@pytest.mark.parametrize("name", list(_value_table()))
def test_values_compare_by_class_and_every_slot(name):
    table = _value_table()
    make = table[name]
    a, b, changed = make(0), make(0), make(1)
    assert a is not b
    assert a == b and not a != b
    assert _hash_or_error(a) == _hash_or_error(b)
    assert a != changed and changed != a
    for other_name, other_make in table.items():
        if other_name != name:
            other = other_make(0)
            assert a != other and other != a, other_name


def test_a_series_of_matrices_is_not_a_series_field_matrix_with_its_coefficients():
    from nclab.diagonalize import SeriesFieldMatrix
    from nclab.genmat import FormalSeries

    field_series = _value_table()["SeriesFieldMatrix"](1)
    plain = FormalSeries(field_series.coeffs)
    assert plain.coeffs == field_series.coeffs
    assert plain != field_series and field_series != plain
    assert plain == FormalSeries(field_series.coeffs)
    assert field_series == SeriesFieldMatrix(plain.coeffs)


def test_fields_compare_by_identity():
    from nclab.fields import GF, Field

    assert GF(7) is Field(7) and QQ is Field(0)
    assert GF(7) == GF(7) and QQ != GF(7)
    assert hash(GF(7)) == object.__hash__(GF(7))
    # a second instance with the same slot is not the field
    twin = object.__new__(Field)
    object.__setattr__(twin, "p", 7)
    assert twin != GF(7) and GF(7) != twin


def test_star_contexts_compare_by_slots_and_do_not_hash():
    from nclab.quantize import StarContext

    tensor = _value_table()["PoissonTensor"](0)
    assert StarContext(tensor, 2) == StarContext(tensor, 2)
    assert StarContext(tensor, 2) != StarContext(tensor, 1)
    with pytest.raises(TypeError):
        hash(StarContext(tensor, 2))
