"""Independent brute-force oracles.

These deliberately avoid the engine code paths they are used to check:
plain-dict word arithmetic instead of FreePoly products, explicit Gaussian
elimination over Fraction or mod p instead of nclab.linalg, Moyal terms as a
sympy bidifferential operator instead of the StarContext machinery and the
monomial arithmetic of ``nclab.rings``, and whole-series
conjugation with series inverses instead of the order-r recurrence of
``successive_diagonalize``, and a graded lex comparison of exponent vectors,
read off the printed variable names, instead of ``CommPoly._order``.
"""

import re
from fractions import Fraction

import sympy.polys.rings

from nclab.diagonalize import SeriesFieldMatrix, solve_sylvester_diag
from nclab.genmat import GenericMatrix
from nclab.rings import CommPoly, RationalFunction, mono_from_dict

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


def ordered_pairs(tensor):
    """(vi, vj, raw T(i,j)) over both orientations, read from the upper-triangle entries."""
    out = []
    for (i, j), c in sorted(tensor.entries.items()):
        vi, vj = tensor.variables[i], tensor.variables[j]
        out += [(vi, vj, c), (vj, vi, tensor.field.reduce(-c))]
    return out


def moyal_term(a: CommPoly, b: CommPoly, r: int, pairs, weight_scalar) -> CommPoly:
    """B_r(a, b) by sympy, as a bidifferential operator on two copies of the variables.

    ``pairs`` is a list of (vi, vj, raw weight) over both orientations;
    ``weight_scalar`` is the field element 1/(2^r r!).  With b written in
    primed variables, B_r(a, b) is weight * D^r (a b') at primed = unprimed,
    for D = sum T(i,j) d/dv_i d/dv_j'.  The arithmetic is sympy's, in a
    sparse polynomial ring over Q, reduced into the field at the end; over
    F_p the inputs are integers, so that reduction is a ring homomorphism.
    """
    variables = sorted({v for p in (a, b) for v in p.variables()}
                       | {v for vi, vj, _c in pairs for v in (vi, vj)})
    ring, *gens = sympy.polys.rings.ring(
        [str(v) for v in variables] + [f"{v}'" for v in variables], sympy.QQ)
    names = dict(zip(variables, gens))
    primed = dict(zip(variables, gens[len(variables):]))

    def lift(p: CommPoly, symbol):
        total = ring.zero
        for m, c in p.terms.items():
            term = ring(Fraction(c))
            for v, e in m:
                term *= symbol[v] ** e
            total += term
        return total

    rows = {}  # vi -> [(vj, T(i,j))]: each d/dv_i is taken once per step
    for vi, vj, c in pairs:
        rows.setdefault(vi, []).append((primed[vj], Fraction(c)))
    w = lift(a, names) * lift(b, primed)
    for _ in range(r):
        out = ring.zero
        for vi, row in rows.items():
            di = w.diff(names[vi])
            for vj, c in row:
                out += di.diff(vj) * c
        w = out
    # primed = unprimed: add the two halves of each exponent vector
    n, terms = len(variables), {}
    for e, c in w.terms():
        key = tuple(x + y for x, y in zip(e[:n], e[n:]))
        terms[key] = terms.get(key, 0) + Fraction(int(c.numerator), int(c.denominator))
    weight = Fraction(weight_scalar.value)
    return CommPoly(a.field, {mono_from_dict(dict(zip(variables, e))): c * weight
                              for e, c in terms.items()})


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


def diagonalize_by_conjugation(a: SeriesFieldMatrix):
    """Conjugator u and diagonal form D by whole-series conjugation.

    The current series starts at A.  At each order 0 < r <= a.order whose
    coefficient is not diagonal, with T the Sylvester solve of its
    off-diagonal part and b = E + h^r T, the series becomes b (series) b^-1
    and u becomes b u.  D is the diagonal of the final series.
    """
    lam = a.coeffs[0].diagonal_entries()
    u = series_identity(len(lam), a.order, a.field)
    e, zero = u.coeffs[0], GenericMatrix.zeros(len(lam), a.field, RationalFunction)
    current = a
    for r in range(1, a.order + 1):
        c = current.coeffs[r]
        if c.is_diagonal():
            continue
        t = solve_sylvester_diag(lam, c - GenericMatrix.diagonal(c.diagonal_entries()))
        b = SeriesFieldMatrix([e] + [t if k == r else zero for k in range(1, a.order + 1)])
        current = b * current * inverse_unitriangular(b)
        u = b * u
    diag = [GenericMatrix.diagonal(c.diagonal_entries()) for c in current.coeffs]
    return u, SeriesFieldMatrix(diag)
