"""moluq: uncertainty quantification for computed molecular properties.

Samples structure ensembles from B-value and torsion-angle uncertainty,
evaluates geometric and energetic quantities of interest, and produces
empirical certificate tables, closed-form concentration bounds,
probabilistic binding-site maps, and visualization data files.

Submodules load on first use: ``moluq.qoi`` (or ``import moluq.qoi``)
imports that module and what it imports, nothing else.
"""

__version__ = "0.1.0"

# the relative-error thresholds t of a certificate table when none are given
DEFAULT_T_GRID = (0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1)

_SUBMODULES = frozenset({"bindsite", "bounds", "certificates", "cli", "conformers", "molio",
                         "pairs", "qoi", "sampling", "schema", "vizgrid"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"moluq.{name}")
    raise AttributeError(f"module 'moluq' has no attribute {name!r}")
