"""Independent brute-force oracles.

These deliberately avoid the engine code paths they are used to check:
plain-dict word arithmetic instead of FreePoly products, explicit Gaussian
elimination over Fraction or mod p instead of nclab.linalg, a from-scratch Moyal
term expansion instead of the StarContext machinery, and whole-series
conjugation with series inverses instead of the order-r recurrence of
``successive_diagonalize``, and a graded lex comparison of exponent vectors,
read off the printed variable names, instead of ``CommPoly._order``.
"""

import re
from fractions import Fraction

from nclab.diagonalize import SeriesFieldMatrix, solve_sylvester_diag
from nclab.genmat import GenericMatrix
from nclab.rings import CommPoly, RationalFunction

_ENTRY_NAME = re.compile(r"x([0-9]+)\[([0-9]+),([0-9]+)\]")
_AUX_NAME = re.compile(r"([A-Za-z_]+)([0-9]+)")


def variable_rank(v):
    """Sort key of a variable read from its name: every x<l>[<i>,<j>] before every lam1, t2, ..."""
    m = _ENTRY_NAME.fullmatch(str(v))
    if m:
        return (0, int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _AUX_NAME.fullmatch(str(v))
    return (1, m.group(1), int(m.group(2)))


def graded_lex_cmp(m1, m2) -> int:
    """-1/0/1: total degree first, then the exponent vectors over the variables in order."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    e1, e2 = dict(m1), dict(m2)
    order = sorted(set(e1) | set(e2), key=variable_rank)
    v1 = [e1.get(v, 0) for v in order]
    v2 = [e2.get(v, 0) for v in order]
    return (v1 > v2) - (v1 < v2)


def free_mul(a: dict, b: dict) -> dict:
    """Word-map product on plain dicts word -> Fraction."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


def free_commutator(a: dict, b: dict) -> dict:
    ab, ba = free_mul(a, b), free_mul(b, a)
    out = dict(ab)
    for w, c in ba.items():
        out[w] = out.get(w, Fraction(0)) - c
    return {w: c for w, c in out.items() if c}


def matmul(a, b):
    """Row-column product of list-of-list matrices with CommPoly entries."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def signed_permutation_sum(mats):
    """Alternating sum over all permutation products, by explicit recursion."""
    from itertools import permutations

    n = len(mats[0])
    zero = mats[0][0][0] - mats[0][0][0]
    acc = [[zero for _ in range(n)] for _ in range(n)]
    for perm in permutations(range(len(mats))):
        inv = sum(
            1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
        )
        prod = mats[perm[0]]
        for idx in perm[1:]:
            prod = matmul(prod, mats[idx])
        for i in range(n):
            for j in range(n):
                term = prod[i][j]
                if inv % 2:
                    term = CommPoly(term.field, {m: -c for m, c in term.terms.items()})
                acc[i][j] = acc[i][j] + term
    return acc


def fraction_kernel(rows, ncols):
    """Kernel basis of a Fraction matrix by plain Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot = None
        for r in range(pr, len(m)):
            if m[r][pc] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = 1 / m[pr][pc]
        m[pr] = [x * inv for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def modp_kernel(rows, ncols, p):
    """Kernel basis of an integer matrix mod a prime p by plain Gauss-Jordan elimination."""
    m = [[x % p for x in r] for r in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot = None
        for r in range(pr, len(m)):
            if m[r][pc]:
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = pow(m[pr][pc], p - 2, p)  # Fermat inverse
        m[pr] = [x * inv % p for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc]:
                f = m[r][pc]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc] % p
        basis.append(vec)
    return basis


def kernel(rows, ncols, p=0):
    """Kernel basis over Q (p = 0) or GF(p), by the matching plain elimination."""
    return modp_kernel(rows, ncols, p) if p else fraction_kernel(rows, ncols)


def rank(vectors, ncols, p=0):
    """Dimension of the span of the given vectors (rows of length ncols)."""
    transposed = [[v[i] for v in vectors] for i in range(ncols)]
    return len(vectors) - len(kernel(transposed, len(vectors), p))


def iterated_diff(p: CommPoly, variables) -> CommPoly:
    out = p
    for v in variables:
        out = out.diff(v)
    return out


def moyal_term(a: CommPoly, b: CommPoly, r: int, pairs, weight_scalar) -> CommPoly:
    """B_r(a, b) expanded from scratch over ordered tensor pairs.

    ``pairs`` is a list of (vi, vj, scalar weight); ``weight_scalar`` is the
    field element 1/(2^r r!).
    """
    from itertools import product

    acc = CommPoly.zero(a.field)
    if r == 0:
        return a * b
    for combo in product(pairs, repeat=r):
        left = iterated_diff(a, [vi for vi, _vj, _w in combo])
        right = iterated_diff(b, [vj for _vi, vj, _w in combo])
        w = a.field.one
        for _vi, _vj, c in combo:
            w = w * c
        acc = acc + (left * right).scale(w)
    return acc.scale(weight_scalar)


def poisson_oracle(a: CommPoly, b: CommPoly, tensor) -> CommPoly:
    """Bracket via the full antisymmetric matrix, both triangles explicitly."""
    n = len(tensor.variables)
    full = {}
    for (i, j), c in tensor.entries.items():
        full[(i, j)] = c
        full[(j, i)] = -c
    acc = CommPoly.zero(a.field)
    for i in range(n):
        for j in range(n):
            c = full.get((i, j))
            if c is None:
                continue
            acc = acc + (a.diff(tensor.variables[i]) * b.diff(tensor.variables[j])).scale(c)
    return acc


def series_identity(n: int, order: int, field) -> SeriesFieldMatrix:
    """E as a series matrix over RationalFunction truncated at ``order``."""
    return SeriesFieldMatrix.from_poly(GenericMatrix.identity(n, field, RationalFunction), order)


def inverse_unitriangular(s: SeriesFieldMatrix) -> SeriesFieldMatrix:
    """Inverse of E + V (V = O(h)): the finite geometric series E - V + V^2 - ..."""
    e = series_identity(s.coeffs[0].n, s.order, s.field)
    v = s - e
    if not v.coeffs[0].is_zero:
        raise ValueError("inverse_unitriangular needs leading coefficient E")
    out = e
    power = e
    negate = True
    for _ in range(s.order):
        power = power * v
        out = out - power if negate else out + power
        negate = not negate
    return out


def diagonalize_by_conjugation(a: SeriesFieldMatrix, target: int):
    """Conjugator u and diagonal form D by whole-series conjugation.

    The current series starts at A.  At each order 0 < r <= target whose
    coefficient is not diagonal, with T the Sylvester solve of its
    off-diagonal part and b = E + h^r T, the series becomes b (series) b^-1
    and u becomes b u.  D is the diagonal of the final series.
    """
    lam = a.coeffs[0].diagonal_entries()
    u = series_identity(len(lam), a.order, a.field)
    e, zero = u.coeffs[0], GenericMatrix.zeros(len(lam), a.field, RationalFunction)
    current = a
    for r in range(1, target + 1):
        c = current.coeffs[r]
        if c.is_diagonal():
            continue
        t = solve_sylvester_diag(lam, c - GenericMatrix.diagonal(c.diagonal_entries()))
        b = SeriesFieldMatrix(a.order, [e] + [t if k == r else zero for k in range(1, a.order + 1)])
        current = b * current * inverse_unitriangular(b)
        u = b * u
    diag = [GenericMatrix.diagonal(c.diagonal_entries()) for c in current.coeffs]
    return u, SeriesFieldMatrix(a.order, diag)
