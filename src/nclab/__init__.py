"""nclab: exact symbolic algebra for free algebras, generic matrices and
truncated star products.

Every command runs in a fresh process, so each submodule but ``cli`` is
registered lazily: it is in ``sys.modules`` and on the package from the
start, and its code is compiled and run at its first attribute access.  A
command then loads only the modules it uses.  The public names below resolve
through their module on first use; ``from nclab import FormalSeries`` loads
``nclab.genmat``, where the truncated series lives beside ``GenericMatrix``,
and not the star products of ``nclab.quantize``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register(name):
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in (
    "centralizer", "diagonalize", "errors", "fields", "freealg", "genmat",
    "linalg", "quantize", "records", "rings", "serialize",
):
    _register(_name)
del _name

# public name -> the submodule that defines it
_PUBLIC = {
    name: module
    for module, names in (
        ("fields", "GF QQ Field Scalar"),
        ("freealg", "FreePoly commutator parse_free pretty"),
        (
            "genmat",
            "BivariatePoly FormalSeries GenericMatrix annihilator_stability find_annihilator"
            " make_generic pi_reduce standard_identity",
        ),
        (
            "quantize",
            "PoissonTensor StarContext StarSeries matrix_star poisson_bracket quantize_lift"
            " star_generic star_mul verify_correspondence",
        ),
        ("rings", "CommPoly RationalFunction Variable"),
    )
    for name in names.split()
}


def __getattr__(name):
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)
