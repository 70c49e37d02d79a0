"""Differentially private ERM with geometry-aware solvers.

Every name has one import path, ``dperm.<module>.<name>``:

- ``geometry``: the six bodies, ``body_from_dict``, ``gaussian_width_mc``, the per-body memo
- ``losses``: ``Dataset``, ``SquaredError``, ``Huber``, ``CustomLoss``, ``loss_from_dict``
- ``potentials``: ``SquaredL2``, ``NegativeEntropy``, ``PolytopeQNorm``, ``GroupedL1``
- ``privacy``: ``PrivacyBudget``, ``NoisePlan``, the noise scales and the samplers
- ``firstorder``: ``minimize``, the one certified accelerated-gradient loop
- ``oracle``: ``solve_exact``, ``cached_solve``, ``excess_risk``
- ``solvers``: ``SolverConfig``, ``resolve_defaults``, ``run_solver``, ``SolverReport``
- ``harness``: ``generate_lasso``, ``ExperimentSpec``, ``run_sweep``, ``summarize``
- ``cli``: the ``dperm`` command (``width``, ``solve``, ``bench``)
"""

__version__ = "0.1.0"
