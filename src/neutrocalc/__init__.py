"""Nonstandard neutrosophic calculus.

Monad-decorated numbers with a six-valued order, decorated intervals,
homogeneous (T, I, F) triples, logic connectives over three t-norm
kernels, and a formula grammar with a CLI evaluator.

Each module's ``__all__`` is its public list; the package exports the
union of them.
"""

from . import connectives, errors, formula, intervals, monads, triples
from .connectives import *
from .errors import *
from .formula import *
from .intervals import *
from .monads import *
from .triples import *

__version__ = "0.1.0"

__all__ = []
__all__ += connectives.__all__
__all__ += errors.__all__
__all__ += formula.__all__
__all__ += intervals.__all__
__all__ += monads.__all__
__all__ += triples.__all__
