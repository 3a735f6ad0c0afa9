"""Einstein-product tensor algebra with low-rank inverse updates.

The package provides a dense complex tensor type whose modes are split into
row and column groups, the algebra that makes those tensors behave like
matrices (products, Hermitian transpose, Kronecker product, norms), tensor
inverses and Moore-Penrose pseudoinverses through the flattening isomorphism,
low-rank inverse-update identities with full applicability checking, and a
sensitivity harness bounding the solution change of perturbed multilinear
systems.  A command-line front end (``einalg``) exposes the main operations
over JSON tensor files.
"""

from . import errors, inverses, matkernel, sensitivity, shapes, tensor, tensorio, woodbury
from .errors import *
from .shapes import *
from .tensor import *
from .matkernel import *
from .inverses import *
from .woodbury import *
from .sensitivity import *
from .tensorio import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, shapes, tensor, matkernel, inverses, woodbury, sensitivity, tensorio)
    for name in module.__all__
] + ["__version__"]
