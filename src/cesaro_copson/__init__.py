"""Exact operator norms and best constants for the discrete averaging
(Cesaro) and tail (Copson) operators on weighted l-infinity cones.

The public surface re-exports the weight types and cones, the structured
operator kinds, the norm evaluators (generic engine plus the specialised
closed formulas), the power-weight branch tables, the two-operator best
constants, and the verification oracle.
"""

from .weights import (Cone, ListWeight, PowerWeight, SeqWindow, Weight,
                      codomain_weight_at, envelope_down, envelope_up,
                      quotient_norm_weighted, sup_norm_weighted, weight_at,
                      weight_from_csv, weight_from_json, weight_to_json)
from .operators import (OpKind, PRINCIPAL_KINDS, SignFlip, apply,
                        check_identity_first, check_identity_second, cone_plan,
                        entry)
from .special_sums import (CertifiedValue, hurwitz_tail, m_alpha, shifted_tail,
                           zeta)
from .norms import (DEFAULT_TRUNC, NormResult, Status, TruncConfig,
                    dist_cesaro_identity, dist_copson_identity, norm_c_minus_sstar,
                    norm_cesaro, norm_copson, norm_cstarsd, norm_general)
from .power import (PowerCaseResult, breakpoint_index, breakpoint_s,
                    cesaro_minus_id_power, cesaro_power, copson_minus_id_power,
                    copson_power, two_op_cc_power, two_op_cstarc_power)
from .two_operator import (Direction, TwoOpQuery, best_constant,
                           two_op_row_terms, w_envelope, witness_ratio)
from .oracle import (UnsupportedConeError, VerifyReport, extremal_lower_bound,
                     random_lower_bound, run_all_suites, verify)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
