#!/usr/bin/env python3
"""Walk the whole mechanism on one screen.

Lifts a commuting pair in the free algebra to the generic matrices as star
series, a homomorphism whose h^0 coefficients are the reductions, finds
annihilators of those images and checks that the lifts star-commute.  Then it
runs the probe on a directly constructed transcendence-degree-2 pair, where
the traces tr(c1 f^k) of the star commutator's h-coefficient c1, which no
choice of lift changes, refuse to vanish.
"""

from nclab.centralizer import (
    bergman_check,
    bergman_pipeline,
    commuting_matrix_probe,
    diagonal_generic_pair,
)
from nclab.fields import QQ
from nclab.freealg import parse_free, pretty
from nclab.quantize import StarContext, entry_pairing_tensor, quantize_lift


def show_pipeline(ftext: str, gtext: str) -> None:
    f = parse_free(ftext, 2, QQ)
    g = parse_free(gtext, 2, QQ)
    ctx = StarContext(entry_pairing_tensor(2, 2, QQ), 2)
    rep = bergman_pipeline(f, g, 2, 3, ctx)
    print(f"pair ({ftext}, {gtext}): commute = {rep.commute}")
    for o in rep.outcomes:
        ann = str(o.annihilator.poly) if o.annihilator.found else "none"
        star = "0" if o.star_c1_zero else "nonzero"
        print(f"  n={o.n}: annihilator {ann}; h-coefficient of [f^, g^]_*: {star}")
    print(f"  -> {rep.conclusion}\n")


def main() -> None:
    print("== centralizers ==")
    for text in ["x1^2", "x2*x1*x2"]:
        rep = bergman_check(parse_free(text, 2, QQ), 5)
        print(f"C({text}) up to degree 5: generated by {pretty(rep.generator)}; dims {rep.dims}")
    print()

    print("== commuting free pairs ==")
    show_pipeline("x1", "x1^2 + x1")
    show_pipeline("x1*x2 + x1", "(x1*x2 + x1)^2")
    show_pipeline("x1", "x2")

    print("== a transcendence-degree-2 matrix pair ==")
    f, g, tensor = diagonal_generic_pair(2, QQ)
    ctx = StarContext(tensor, 2)
    rep = commuting_matrix_probe(quantize_lift(f, ctx), quantize_lift(g, ctx), 3)
    (o,) = rep.outcomes
    print(f"diag pair: annihilator found = {o.annihilator.found}")
    print(f"h-coefficient of the star commutator: {o.star_linear_part}")
    print(f"tau_k = tr(c1 f^k): {', '.join(str(t) for t in o.tau)}")
    print(f"-> {rep.conclusion}")


if __name__ == "__main__":
    main()
