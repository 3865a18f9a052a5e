"""Numerical laboratory for SU(2)^2-invariant structures on R^4 x S^3.

Layers: exact Lie-algebra forms (`algebra`), structure profiles and ODE
coefficients (`structures`), the singular initial value machinery
(`singular_ivp`), the instanton families (`instantons`), the report
battery (`verify`) and a command line front end (`cli`).
"""

from ._series import PowerSeries
from .algebra import (BASIS_NAMES, CYCLIC, ConnectionCoeffs, LieForm,
                      Su2Vec, bracket, constraint_value, curvature_direct,
                      curvature_lemma2, exterior_derivative,
                      random_rational_connection)
from .instantons import (InstantonSolution, abelian_connection,
                         connection_at, flat_pid, p1_ivp, pid_ivp,
                         residual_pointwise, solution_to_csv, theta_x1,
                         theta_y0, theta_zero)
from .singular_ivp import (EventSpec, IntegrationError, MalgrangeReport,
                           PreconditionError, SingularIVP, Trajectory,
                           integrate, integrate_blowup, malgrange_check,
                           series_bootstrap, solve_singular)
from .structures import (CYC0, StructureData, b2_from_data,
                         coefficient_functions, load_structure,
                         make_bryant_salamon, make_linear_example,
                         make_su23_structure, save_structure,
                         structure_from_json, structure_to_json)
from .verify import (Report, bubbling_report, convergence_report,
                     curvature_boundary_report, default_battery,
                     invariance_report, oracle_report, parity_report,
                     report_to_json, reports_to_csv, residual_report,
                     spectrum_report)

__all__ = [
    "BASIS_NAMES", "CYC0", "CYCLIC", "ConnectionCoeffs", "EventSpec",
    "InstantonSolution", "IntegrationError", "LieForm", "MalgrangeReport",
    "PowerSeries", "PreconditionError", "Report", "SingularIVP",
    "StructureData", "Su2Vec", "Trajectory", "abelian_connection",
    "b2_from_data", "bracket", "bubbling_report",
    "coefficient_functions", "connection_at", "constraint_value",
    "convergence_report", "curvature_boundary_report", "curvature_direct",
    "curvature_lemma2", "default_battery", "exterior_derivative",
    "flat_pid", "integrate", "integrate_blowup", "invariance_report",
    "load_structure",
    "make_bryant_salamon", "make_linear_example", "make_su23_structure",
    "malgrange_check", "oracle_report", "p1_ivp", "parity_report",
    "pid_ivp", "random_rational_connection",
    "report_to_json", "reports_to_csv", "residual_pointwise",
    "residual_report", "save_structure", "series_bootstrap",
    "solution_to_csv", "solve_singular",
    "spectrum_report", "structure_from_json", "structure_to_json",
    "theta_x1", "theta_y0", "theta_zero",
]

__version__ = "0.1.0"
