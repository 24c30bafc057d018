"""Correlated flood-scenario generation and two-stage grid hardening.

The library has two halves that meet at the scenario file format:

* scenario modeling -- empirical marginals, a Gaussian-copula generator
  with pairwise correlation matching and PSD repair (`norta`, `stats`);
* decision support -- grid data model, DC power-flow recourse, exact and
  greedy first-stage optimization, out-of-sample evaluation
  (`grid`, `lp`, `twostage`).

The `nortagrid` console script (module `cli`) drives both halves through
deterministic file-based commands.
"""

__version__ = "0.1.0"

from .errors import (NumericalError, RecourseError, ResourceLimitError,
                     ValidationError)
from .stats import (ConstantVectorError, EmpiricalMarginal, emd, normal_cdf,
                    normal_quantile, pearson_corr)
from .norta import (FitReport, NortaModel, ScenarioSet, c_of_rho,
                    estimate_inputs, fit, nearest_correlation, sample,
                    solve_rho_z)
from .grid import (Branch, Bus, GridInstance, HardeningPlan, InstanceSpec,
                   Substation, generate_instance, load_grid, load_scenarios,
                   operational_topology, save_grid, save_scenarios)
from .lp import LpProblem, LpSolution, solve_lp
from .twostage import (OosReport, RecourseSolution, RecourseSolver,
                       TwoStageProblem, budget_sweep, evaluate_oos,
                       greedy_first_stage, saa_objective, solve_first_stage)

__all__ = [
    "Branch",
    "Bus",
    "ConstantVectorError",
    "EmpiricalMarginal",
    "FitReport",
    "GridInstance",
    "HardeningPlan",
    "InstanceSpec",
    "LpProblem",
    "LpSolution",
    "NortaModel",
    "NumericalError",
    "OosReport",
    "RecourseError",
    "RecourseSolution",
    "RecourseSolver",
    "ResourceLimitError",
    "ScenarioSet",
    "Substation",
    "TwoStageProblem",
    "ValidationError",
    "__version__",
    "budget_sweep",
    "c_of_rho",
    "emd",
    "estimate_inputs",
    "evaluate_oos",
    "fit",
    "generate_instance",
    "greedy_first_stage",
    "load_grid",
    "load_scenarios",
    "nearest_correlation",
    "normal_cdf",
    "normal_quantile",
    "operational_topology",
    "pearson_corr",
    "sample",
    "save_grid",
    "save_scenarios",
    "saa_objective",
    "solve_first_stage",
    "solve_lp",
    "solve_rho_z",
]
