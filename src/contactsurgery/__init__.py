"""Exact-arithmetic contact surgery calculus.

Expand rational contact surgeries into (+1)/(-1) presentations, compute
the homological invariants of the resulting diagrams (|H1|, signature,
Chern evaluations, d3), manipulate open-book monodromy words, and track
framed invariant statuses with the built-in vanishing and nonvanishing
rules.
"""

from .catalog import (
    Catalog,
    KnotType,
    UNKNOT,
    cable_of_trefoil,
    connected_sum,
    torus_knot,
)
from .errors import ContactSurgeryError
from .expansion import (
    Component,
    ContactSurgeryPresentation,
    all_negative_presentation,
    evaluate_continued_fraction,
    expand,
    negative_continued_fraction,
    presentation_for_framing,
)
from .homology import (
    HomologyData,
    LinkingMatrix,
    SpinCEvaluation,
    d3_invariant,
    homology_data,
    linking_matrix,
    spin_c_evaluation,
)
from .ledger import (
    LedgerState,
    LedgerSubject,
    LedgerVerdict,
    TightnessReport,
    apply_rules,
    assert_fact,
    inverse_limit_status,
    tight_surgery_ranges,
)
from .legendrian import (
    Framing,
    LegendrianKnot,
    TransverseKnot,
    stabilize,
)
from .openbook import (
    InvariantStatus,
    LanternConfiguration,
    SurfaceModel,
    attach_surgery_twists,
    cap_off,
    cyclic_words_equal,
    free_reduce,
    giroux_destabilize,
    giroux_stabilize,
    homology_action,
    lantern_rewrite,
)

__version__ = "0.1.0"
