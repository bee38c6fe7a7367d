"""Point processes on linear networks.

Simulation, estimation and goodness-of-fit for inhomogeneous Poisson and
thinned-Cox point processes on tree networks with the shortest-path
metric. See the README for a tour.

Each module's ``__all__`` declares its public names; every one of them is
importable from here, and ``linnetcox.__all__`` is their union.
"""

from . import envelopes, errors, estimation, io, models, network, simulate, summaries, templates
from ._version import __version__
from .envelopes import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimation import *  # noqa: F403
from .io import *  # noqa: F403
from .models import *  # noqa: F403
from .network import *  # noqa: F403
from .simulate import *  # noqa: F403
from .summaries import *  # noqa: F403
from .templates import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (errors, network, models, simulate, summaries, estimation, envelopes, io,
                   templates)
    for name in module.__all__
]
