"""k2forge: plane curves over Q with certified elements of the tame
second K-group.

Exact rational arithmetic end to end: polynomial algebra, branch
expansions at infinity, intersection multiplicities, tame symbols, the
torsion and contact constructions, and machine verification of every
finitely checkable claim about the generated families.
"""

from .bipoly import BiPoly
from .curves import (Conic, CurvePoint, Line, PlaneCurve, SmoothnessReport,
                     intersection_multiplicity, is_on_curve, smoothness_check,
                     tangent_line)
from .branches import Branch, branch_at_affine, branches_at_infinity
from .errors import (InsufficientPrecisionError, K2ForgeError,
                     NonRationalSupportError, PreconditionError,
                     RecordFormatError, SingularModelError,
                     VerificationError)
from .families import (GENERATORS, gen_hyp_even, gen_hyp_odd, gen_hyp_partial,
                       gen_nekovar_2tor, gen_nekovar_3tor, gen_nekovar_genus2,
                       gen_quartic_conic, gen_quartic_conic_1tangent,
                       gen_quartic_conic_2tangent, gen_quartic_conic_pq,
                       gen_quartic_ct, gen_quartic_lines, integrality_flags)
from .linalg import vandermonde_solve
from .rationals import rat, rat_str
from .records import (CurveRecord, NamedElement, record_from_json,
                      record_jsonable, record_to_json)
from .series import PowerSeries
from .symbols import (Certificate, Divisor, FnElt, K2Element, SymbolEngine,
                      SymbolPair, TorsionFunction, construction_torsion,
                      nekovar_element, steinberg_values, verify_k2t)
from .unipoly import UniPoly

__version__ = "0.1.0"
