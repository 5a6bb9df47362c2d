"""Deterministic numerics for entanglement measures, capacity bounds and
open-system dynamics witnesses on small quantum systems.

Submodules:
  linalg       dense Hermitian kernel (eig, partial trace/transpose, norms)
  sdp          small-scale block-diagonal semidefinite solver
  qcore        states, channels, groups, teleportation simulation
  infomeasures entropies, divergences, metric and continuity checks
  rains        Rains-type entanglement bounds, state/channel/bidirectional
  dynamics     Lindblad evolution, entropy-rate witnesses, diamond norms
  reading      memory-cell capacities, privacy and security parameters
  cli          command-line driver (entry point: qbound)

Submodules load on first access: ``import qbound`` loads none of them and
no numpy, and ``qbound.rains`` imports rains when it is first read.
"""
import importlib

__version__ = "0.1.0"

__all__ = ["linalg", "sdp", "qcore", "infomeasures", "rains", "dynamics",
           "reading", "__version__"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
