"""Exact p-adic power-series operator calculus and filtered phi-module
slope computations, with certificate-style verdicts throughout."""

from .config import Config
from .errors import (PadicError, PrecisionError, TailBoundError,
                     NotDivisibleError, PsiNotZeroError,
                     EnumerationUnsupportedError, NotStableError, SchemaError)
from .padics import FieldElement, UnramifiedField, frobenius_sigma
from .cyclotomic import CyclotomicLayer, CyclotomicElement
from .series import TruncatedSeries, INFINITE
from .seriesops import (phi_op, psi_op, d_op, gamma_action, ell_op,
                        log_series, ilog_series, rho_norm, RhoNorm,
                        LogPolynomial, growth_order, growth_order_estimate,
                        cyclotomic_evaluate, divide_by_log, log_order)
from .modules import (FilteredPhiModule, Subspace, Certificate,
                      modular_form_module, mf_rank_table, tensor_slope_check)
from .analytic import (VectorSeries, phi_vec, phi_growth_order,
                       check_membership, MembershipReport, wronskian_det,
                       phi_orbit_wedge, orbit_relation, OrbitRelation,
                       contradiction_pipeline, ContradictionReport,
                       det_log_divisibility)
from .serialize import parse_module_file, parse_series_file
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "Config", "PadicError", "PrecisionError", "TailBoundError",
    "NotDivisibleError", "PsiNotZeroError", "EnumerationUnsupportedError",
    "NotStableError", "SchemaError", "FieldElement",
    "UnramifiedField", "frobenius_sigma", "CyclotomicLayer",
    "CyclotomicElement", "TruncatedSeries", "INFINITE",
    "phi_op", "psi_op", "d_op", "gamma_action", "ell_op", "log_series",
    "ilog_series", "rho_norm", "RhoNorm", "LogPolynomial", "growth_order",
    "growth_order_estimate", "cyclotomic_evaluate", "divide_by_log",
    "log_order", "FilteredPhiModule", "Subspace", "Certificate",
    "modular_form_module", "tensor_slope_check", "VectorSeries", "phi_vec",
    "phi_growth_order", "check_membership", "MembershipReport",
    "wronskian_det", "phi_orbit_wedge", "orbit_relation", "OrbitRelation",
    "contradiction_pipeline", "ContradictionReport", "det_log_divisibility",
    "parse_module_file", "parse_series_file", "mf_rank_table", "run_suite",
]
