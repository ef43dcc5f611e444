"""Exact linear algebra over a field: an incremental sparse echelon.

``Echelon`` is the elimination engine: it absorbs sparse columns one at a
time and reports each column that depends on the earlier ones as a kernel
vector.  It works on raw values (ints and Fractions over Q, ints in ``[0, p)``
over F_p) with the field held on the echelon, so no ``Scalar`` is built in its
inner loop.  Its kernel vectors are already in reduced echelon form, which
``check_reduced`` re-checks.  ``kernel_basis`` (the kernel of a batch of
columns) and ``solve_membership`` (a batch of targets over one echelon) are
its batch interface.  ``rref`` and ``rings.poly_gcd`` are views of one
echelon too: there is no second elimination.  Everything is deterministic:
identical inputs give identical results.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .fields import Field, Scalar


class Echelon:
    """Column echelon form of the columns absorbed so far.

    A column is a dict mapping a row key to a nonzero raw value.  Each pivot
    is a reduced column whose pivot entry is 1 and whose entries in the rows
    of earlier pivots are 0, together with its combination of original
    columns (a dict column index -> raw value).  A column is reduced only
    against the pivots whose rows it touches, in the order the pivots were
    made, which leaves it with no entry in any pivot row.
    """

    __slots__ = ("ncols", "_field", "_order", "_pivots")

    def __init__(self, field: Field):
        self.ncols = 0
        self._field = field
        self._order = {}  # pivot row -> index into _pivots
        self._pivots = []  # (row, reduced column, combination)

    def _reduce(self, col: dict, comb: dict) -> None:
        """Subtract pivots from ``col`` in place, mirroring each step on ``comb``."""
        # here, in absorb's pivot scaling and in solve, % p stays inline: the one
        # raw arithmetic is Field's, but a call per entry costs more than the entry
        p, order, pivots = self._field.p, self._order, self._pivots
        heap = [order[r] for r in col if r in order]
        heapify(heap)
        while heap:
            k = heappop(heap)
            row, vec, vcomb = pivots[k]
            c = col.get(row)
            if c is None:  # a duplicate entry of a pivot already applied
                continue
            for key, v in vec.items():
                old = col.get(key)
                if old is None:
                    col[key] = -c * v % p if p else -c * v
                    if key in order:
                        heappush(heap, order[key])
                    continue
                new = (old - c * v) % p if p else old - c * v
                if new:
                    col[key] = new
                else:
                    del col[key]
            for key, v in vcomb.items():
                new = (comb.get(key, 0) - c * v) % p if p else comb.get(key, 0) - c * v
                if new:
                    comb[key] = new
                else:
                    comb.pop(key, None)

    def absorb(self, column: dict):
        """Add the next column; return its kernel vector if it depends on the others.

        The kernel vector is a dict column index -> raw value with the new
        column's index (``ncols`` before the call) at coefficient 1 and other
        entries only at earlier pivot columns (a pivot's combination holds no
        dependent column): reduced echelon form for the descending column order.
        """
        j = self.ncols
        self.ncols += 1
        col = dict(column)
        comb = {j: 1}
        self._reduce(col, comb)
        if not col:
            return comb
        p = self._field.p
        # over Q a pivot entry of 1 or -1 keeps integral columns integral
        row = next((k for k, v in col.items() if p or v in (1, -1)), next(iter(col)))
        inv = self._field.inverse(col[row])
        if inv != 1:
            col = {k: v * inv % p if p else v * inv for k, v in col.items()}
            comb = {k: v * inv % p if p else v * inv for k, v in comb.items()}
        self._order[row] = len(self._pivots)
        self._pivots.append((row, col, comb))
        return None

    def solve(self, target: dict):
        """Raw coefficients c (column index -> value) with sum c_j col_j == target, or None."""
        col = dict(target)
        comb = {}
        self._reduce(col, comb)
        if col:
            return None
        p = self._field.p
        return {k: -v % p if p else -v for k, v in comb.items()}


def check_reduced(kernel) -> None:
    """Raise ``ArithmeticError`` unless the kernel vectors are in reduced echelon form.

    A vector (dict column index -> raw value) is led by its largest index;
    the leads are distinct, each with 1 in its own vector and 0 in the others.
    """
    leads = {max(vec): vec for vec in kernel}
    if len(leads) != len(kernel):
        raise ArithmeticError("two kernel vectors share a leading column")
    for lead, vec in leads.items():
        if vec[lead] != 1 or any(vec[k] for k in vec.keys() & leads.keys() if k != lead):
            raise ArithmeticError(f"kernel vector led by column {lead} is not reduced")


# Nothing in nclab calls rref; the benchmark's tracer (perfbench/tracing.py) wraps it by name.
def rref(rows, field: Field):
    """Reduced row echelon form (a copy) plus the pivot column indices.

    An ``Echelon`` takes the columns in order.  The pivot columns are those it
    keeps; the kernel vector of any other column j holds minus the
    coordinates of column j over the pivot columns, which are its entries in
    the reduced rows.
    """
    rows = list(rows)
    echelon = Echelon(field)
    kernel = [echelon.absorb({i: field.raw(x) for i, x in enumerate(col) if x})
              for col in zip(*rows)]
    pivots = [j for j, vec in enumerate(kernel) if vec is None]
    reduced = [[Scalar(field, int(j == pc) if vec is None else field.reduce(-vec.get(pc, 0)))
                for j, vec in enumerate(kernel)] for pc in pivots]
    zero = Scalar(field, 0)
    return reduced + [[zero] * len(kernel) for _ in rows[len(pivots):]], pivots


def kernel_basis(columns, field: Field) -> list:
    """The kernel vectors of the columns that depend on earlier ones, in column order.

    ``columns`` is any iterable of sparse raw columns, the input of
    ``Echelon.absorb``; each vector is what ``absorb`` returns for its column.
    They are re-checked by ``check_reduced`` before they are returned.
    """
    echelon = Echelon(field)
    kernel = [vec for vec in map(echelon.absorb, columns) if vec is not None]
    check_reduced(kernel)
    return kernel


def solve_membership(columns, targets, field: Field) -> list:
    """For each target, the raw coefficients of ``Echelon.solve`` over the columns, or None.

    One echelon absorbs the columns and solves every target.  A column that
    depends on earlier ones gets no coefficient.
    """
    echelon = Echelon(field)
    for col in columns:
        echelon.absorb(col)
    return [echelon.solve(target) for target in targets]
