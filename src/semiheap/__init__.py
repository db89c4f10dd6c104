"""Computational toolkit for finite semiheaps, heaps and their geometry.

Exhaustive law verification on finite carriers, the heapification /
groupification functor pair, translations, actions and bundles at desk
scale, and a numerical layer realizing matrix Lie groups as heaps.
"""

from .core import (
    FiniteHeap,
    FiniteSemiheap,
    InvalidTable,
    LawError,
    PointedSemiheap,
    SemiheapHom,
    TernaryTable,
    is_abelian,
    is_biunitary,
    is_heap,
    is_homomorphism,
    is_subsemiheap,
    opposite,
    product,
    verify_para_associative,
)

__all__ = [
    "FiniteGroup", "FiniteHeap", "FiniteSemiheap", "InvalidTable", "LawError",
    "PointedSemiheap", "SemiheapHom", "TernaryTable",
    "check_fully_faithful", "corpus", "groupify", "groupify_diagnose",
    "heapify", "is_abelian", "is_biunitary", "is_heap", "is_homomorphism",
    "is_subsemiheap", "opposite", "product", "verify_para_associative",
]


def __getattr__(name):
    """The rest of __all__, from functors or else groups: those modules load on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import functors, groups
    return getattr(functors if hasattr(functors, name) else groups, name)
