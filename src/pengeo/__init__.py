"""Penalty-continuation solver for constrained geodesics and drift controls.

The package splits along the pipeline: ``geometry`` defines metric fields,
frames, and projections; ``functionals`` the discrete paths and energies;
``optimizer`` the Newton solver and continuation loop; ``drift`` the
flow lift that turns steering problems into geodesic ones; ``diagnostics``
the convergence witnesses; ``problems`` the built-in benchmarks; ``cli`` the
batch front end.  The package exports each submodule's ``__all__``.
"""

__version__ = "0.1.0"

from . import diagnostics, drift, functionals, geometry, optimizer, problems
from .diagnostics import *  # noqa: F401,F403
from .drift import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (diagnostics, drift, functionals, geometry, optimizer, problems)
    for name in module.__all__
]
