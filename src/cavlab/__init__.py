"""Mixed-autonomy traffic laboratory.

Microscopic simulator (IDM humans + controlled CAVs on ring, figure-eight
and merge networks), kernel-weighted dynamic CAV graphs, a small exact
reverse-mode autodiff engine with graph convolution and multi-head
attention, shared-policy multi-agent PPO, and a deterministic evaluation
and sweep harness.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config            # noqa: F401
# `evaluate` is not re-exported: the function would hide the submodule.
from .evaluate import run_sweep                         # noqa: F401
from .graph import build_adjacency, degree_normalize    # noqa: F401
from .idm import IdmParams, equilibrium_speed           # noqa: F401
from .networks import FigureEightSpec, MergeSpec, RingSpec  # noqa: F401
from .sim import SimOptions, build_network, step        # noqa: F401
from .trainer import EnvSpec, PpoConfig, train          # noqa: F401
