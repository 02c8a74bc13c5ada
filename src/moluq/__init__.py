"""moluq: uncertainty quantification for computed molecular properties.

Samples structure ensembles from B-value and torsion-angle uncertainty,
evaluates geometric and energetic quantities of interest, and produces
empirical certificate tables, closed-form concentration bounds,
probabilistic binding-site maps, and visualization data files.
"""

__version__ = "0.1.0"
