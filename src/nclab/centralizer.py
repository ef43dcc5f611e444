"""Degree-bounded centralizers in the free algebra and the end-to-end pipeline.

The centralizer of f up to degree d is the exact kernel of g |-> [f, g] on
the span of words of length <= d, computed by linear algebra over the ground
field.  ``bergman_check`` then tests whether that kernel is spanned by the
powers of a single minimal-degree element, i.e. looks like k[h] at desk
scale.  ``bergman_pipeline`` lifts a commuting free pair to series of
matrices by evaluating it at the star-generic matrices, a homomorphism whose
h^0 coefficient is the reduction to generic matrices; it searches annihilators
of those images and checks that the lifts' star commutator vanishes through
the truncation order.  ``commuting_matrix_probe`` runs the same tail on one
pair of such lifts, or on the canonical lifts of commuting matrices, which is
the only way to feed it a transcendence-degree-2 pair.
"""

from __future__ import annotations

from itertools import accumulate

from . import freealg, genmat, linalg, quantize, rings
from .errors import NotCommuting, ScalarInput
from .fields import Field, add_products
from .records import Record


def _words_up_to(s: int, d: int):
    """All words of length <= d: ascending length, descending lex within a length."""
    out = [freealg.EMPTY_WORD]
    layer = [freealg.EMPTY_WORD]
    for _ in range(d):
        layer = [w + (g,) for w in layer for g in range(1, s + 1)]
        out.extend(reversed(layer))
    return out


def _span_sizes(s: int, d: int):
    """(count, letters in all) of ``_words_up_to(s, k)`` for k = 0..d, one k at a time."""
    words = letters = 0
    for k in range(d + 1):
        words, letters = words + s**k, letters + k * s**k
        yield words, letters


class CentralizerBasis(Record):
    """The reduced echelon basis of K_d = {g of degree <= d : [f, g] = 0}.

    ``basis`` holds the kernel vectors last first: leading words descend, and
    the elements of degree <= m are a suffix, the reduced echelon basis of K_m.
    """

    __slots__ = ("f", "d", "basis")

    @property
    def dims(self):
        counts = [0] * (self.d + 1)
        for b in self.basis:
            counts[b.degree()] += 1
        return list(accumulate(counts))


def _commutator_column(raw_f, w, field: Field) -> dict:
    """[f, w] for a word w as a dict word -> raw value, with raw_f the (word, value) terms of f."""
    col = {}
    for u, c in raw_f:
        col[u + w] = col.get(u + w, 0) + c
        col[w + u] = col.get(w + u, 0) - c
    return field.reduced(col)


def centralizer_basis(f: freealg.FreePoly, d: int) -> CentralizerBasis:
    """K_d = {g of degree <= d : [f, g] = 0}, exactly.

    ``linalg.kernel_basis`` absorbs the images [f, w] of the words in
    ``_words_up_to`` order, so the kernel vectors of the words of length <= m
    span K_m.  Last first, they are the reduced echelon basis of K_d over the
    graded-lex descending word order, each element under its leading word.
    """
    if f.is_constant:
        raise ScalarInput("the centralizer of a scalar is the whole algebra")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    field = f.field
    raw_f = list(f.terms.items())
    words = _words_up_to(f.s, d)
    columns = (_commutator_column(raw_f, w, field) for w in words)
    basis = [freealg.FreePoly(f.s, field, {words[j]: v for j, v in vec.items()})
             for vec in reversed(linalg.kernel_basis(columns, field))]
    # Re-check by an independent path: every element commutes with f.
    for b in basis:
        if not freealg.commutator(f, b).is_zero:
            raise ArithmeticError(f"centralizer basis element {b} does not commute with f")
    return CentralizerBasis(f, d, basis)


class BergmanReport(Record):
    """Outcome of the single-generator test on a degree-bounded centralizer."""

    __slots__ = ("f", "generator", "dims", "witness")

    d = property(lambda self: len(self.dims) - 1)  # dims runs over the degrees 0..d

    @property
    def passed(self):  # no witness, and dim K_m = m // deg h + 1 at every m (1 with no h)
        step = self.d + 1 if self.generator is None else self.generator.degree()
        return self.witness is None and self.dims == [m // step + 1 for m in range(self.d + 1)]


def bergman_check(f: freealg.FreePoly, d: int) -> BergmanReport:
    """Test whether K_d is the span of the powers of one h; on FAIL name a witness.

    h is the first least-degree nonconstant basis element less its constant.
    Its powers in K_d have distinct degrees, so they span K_d exactly when
    dim K_d = d // deg h + 1, whichever such h is taken.
    """
    cb = centralizer_basis(f, d)
    dims = cb.dims
    nonconstant = [e for e in cb.basis if e.degree() >= 1]
    if not nonconstant:
        # only scalars commute up to this bound: trivially k[h] for any h
        return BergmanReport(f, None, dims, None)
    min_deg = min(e.degree() for e in nonconstant)
    e = next(e for e in nonconstant if e.degree() == min_deg)
    h = e - freealg.FreePoly.constant(e.constant_value(), f.s)
    powers = [freealg.FreePoly.one(f.s, f.field)]
    while len(powers) <= d // min_deg:
        powers.append(powers[-1] * h)
    coeffs = linalg.solve_membership((p.terms for p in powers),
                                     (e.terms for e in cb.basis), f.field)
    witness = next((e for e, c in zip(cb.basis, coeffs) if c is None), None)
    return BergmanReport(f, h, dims, witness)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class SizeOutcome(Record):
    """Per-matrix-size record inside a pipeline report.

    A report exists only for images that commute: ``find_annihilator`` raises
    ``NotCommuting`` otherwise, and ``_size_outcome`` raises unless the star
    commutator of their lifts is 0 at h^0.  ``star_linear_part`` and ``tau``
    are read off that star commutator: of free elements, their images at the
    star-generic matrices (``quantize.star_generic``), and of a matrix pair,
    the canonical lifts.  ``tau`` holds tau_k = tr(c1 f^k), k < n, for
    c1 = ``star_linear_part``, the h-coefficient.  Another lift f + hX, g + hY
    moves c1 by [X, g] + [f, Y], whose trace against f^k is
    tr(X [g, f^k]) + tr(Y [f^k, f]) = 0.  Where f has distinct eigenvalues l_i
    and g has m_i, tau_k = sum_i {l_i, m_i} l_i^k: Eq. (1) against a
    Vandermonde matrix: tau = 0 exactly when every {l_i, m_i} is.
    """

    __slots__ = ("annihilator", "star_linear_part", "tau")

    n = property(lambda self: self.annihilator.n)
    star_c1_zero = property(lambda self: self.star_linear_part.is_zero)

    @property
    def tau_zero(self) -> bool:
        return all(t.is_zero for t in self.tau)


class PipelineReport(Record):
    """Joint record of commutation, annihilators, stability and star behavior.

    ``commute`` is whether ``free_commutator``, [f, g] in the free algebra, is
    0; a probe pair given as matrices has no free commutator and commutes.
    ``stability`` is the StabilityReport of the outcomes' annihilators, and
    None for a probe and for free inputs that do not commute.
    """

    __slots__ = ("f_text", "g_text", "free_commutator", "outcomes", "stability")

    commute = property(lambda self: self.free_commutator is None or self.free_commutator.is_zero)

    @property
    def conclusion(self) -> str:
        """The verdict of the outcomes.  The contradiction scenario is not a failure."""
        if not self.outcomes:  # only free inputs that do not commute have none
            return "inputs do not commute in the free algebra"
        if self.stability is not None and self.stability.unstable:
            return "FAIL: annihilators found at every size are not identical"
        tau_zero = all(o.tau_zero for o in self.outcomes)
        if all(o.annihilator.found for o in self.outcomes):
            text = "annihilator found at every size: consistent with transcendence degree 1" + (
                "" if tau_zero else "; warning: the first-order star trace tau is nonzero")
        elif tau_zero:
            text = "no annihilator up to the bound but the first-order star trace tau vanishes"
        else:
            text = ("no annihilator up to the bound and nonzero first-order star trace tau: "
                    "the contradiction mechanism is visible")
        if self.free_commutator is not None and self.free_commutator.is_zero:
            text += "; the quantized images commute through the truncation order"
        return text


def _star_traces(c1: genmat.GenericMatrix, f: genmat.GenericMatrix) -> list:
    """tau_k = tr(c1 f^k) for k < n, each summed over the entry pairs c1[i, l], f^k[l, i].

    The powers of f are formed only when c1 has entries.
    """
    if c1.is_zero:
        return [rings.CommPoly.zero(f.field)] * f.n
    taus, fk = [], f.identity_like()
    for k in range(f.n):
        if k:
            fk = fk * f
        acc = {}
        for (i, l), x in c1.entries.items():
            y = fk.entries.get((l, i))
            if y is not None:
                add_products(acc, x.terms.items(), y.terms.items(), rings.mono_mul)
        taus.append(rings.CommPoly._of(f.field, acc))
    return taus


def _size_outcome(fhat, ghat, dmax: int, free: bool) -> SizeOutcome:
    """The outcome of two lifts whose h^0 coefficients commute; ``free`` says that they
    lift inputs that commute in the free algebra.  Raises ``ArithmeticError`` where
    their star commutator is not 0 at h^0, or, for such inputs, at any order."""
    # the tensor variables, then h^0 commutation, before the star commutator walks every order
    fhat.ctx.tensor.check_variables([e for c in fhat.coeffs + ghat.coeffs
                                     for e in c.entries.values()])
    f, g = fhat.coefficient(0), ghat.coefficient(0)
    # not waste: this tests f g = g f with GenericMatrix products, and c0 is matrix_star's
    # own, so a nonzero c0 here is an engine fault (exit 2), not non-commuting input (exit 1)
    ann = genmat.find_annihilator(f, g, dmax)
    comm = fhat * ghat - ghat * fhat
    r = next((r for r, c in enumerate(comm.coeffs) if not c.is_zero), None)
    # matrix_star is associative, so the lift at the star-generic matrices is a
    # homomorphism, and it carries [f, g] = 0 to [f^, g^]_* = 0 at every order
    if r == 0 or free and r is not None:
        images = "commuting images" if r == 0 else "the quantized images of commuting free inputs"
        raise ArithmeticError(f"the star commutator of {images} is nonzero at h^{r} (n={f.n})")
    c1 = comm.coefficient(1)
    return SizeOutcome(ann, c1, _star_traces(c1, f))


def bergman_pipeline(
    f: freealg.FreePoly, g: freealg.FreePoly, nmax: int, dmax: int, ctx: quantize.StarContext
) -> PipelineReport:
    """Commutation, lifts at the star-generic matrices, annihilators and star commutators."""
    c = freealg.commutator(f, g)
    f_text, g_text = str(f), str(g)
    if not c.is_zero:
        return PipelineReport(f_text, g_text, c, [], None)
    outcomes = []
    for n in range(1, nmax + 1):
        xs = quantize.star_generic(f.s, n, ctx)
        outcomes.append(_size_outcome(f.evaluate_in_matrices(xs), g.evaluate_in_matrices(xs),
                                      dmax, True))
    stability = genmat.StabilityReport(f_text, g_text, [o.annihilator for o in outcomes])
    return PipelineReport(f_text, g_text, c, outcomes, stability)


def commuting_matrix_probe(f, g, dmax: int,
                           free_commutator: freealg.FreePoly | None = None) -> PipelineReport:
    """Annihilator search plus star commutator for one pair of lifts f, g.

    Unlike the pipeline, the lifts need not be of free-algebra elements, so
    transcendence-degree-2 pairs can be fed in directly as the canonical
    lifts ``quantize.quantize_lift`` of commuting matrices.  Lifts of free
    elements at ``quantize.star_generic`` come with ``free_commutator``, their
    [f, g] in the free algebra; where it is 0, a nonzero lifted star
    commutator raises as in the pipeline.
    """
    free = free_commutator is not None and free_commutator.is_zero
    try:
        outcome = _size_outcome(f, g, dmax, free)
    except NotCommuting:
        raise NotCommuting("probe inputs must commute") from None
    return PipelineReport(str(f.coefficient(0)), str(g.coefficient(0)), free_commutator,
                          [outcome], None)


def diagonal_generic_pair(n: int, field: Field):
    """diag(x1..xn), diag(y1..yn) and the tensor pairing {x_i, y_i} = 1."""
    xs = [rings.Variable.aux("x", i) for i in range(1, n + 1)]
    ys = [rings.Variable.aux("y", i) for i in range(1, n + 1)]
    f = genmat.GenericMatrix.diagonal([rings.CommPoly.variable(v, field) for v in xs])
    g = genmat.GenericMatrix.diagonal([rings.CommPoly.variable(v, field) for v in ys])
    return f, g, quantize.pairing_tensor(xs, ys, field)
