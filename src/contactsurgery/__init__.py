"""Exact-arithmetic contact surgery calculus.

Expand rational contact surgeries into (+1)/(-1) presentations, compute
the homological invariants of the resulting diagrams (|H1|, signature,
Chern evaluations, d3), manipulate open-book monodromy words, and track
framed invariant statuses with the built-in vanishing and nonvanishing
rules.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562 `__getattr__`)
and then cached, so a CLI call loads only what its verb uses.
"""

__version__ = "0.1.0"

# The names each submodule re-exports, as the package's public namespace.
_EXPORTS = {
    "catalog": ("Catalog", "KnotType", "UNKNOT", "cable_of_trefoil", "connected_sum",
                "torus_knot"),
    "errors": ("ContactSurgeryError",),
    "expansion": ("Component", "ContactSurgeryPresentation", "all_negative_presentation",
                  "evaluate_continued_fraction", "expand", "negative_continued_fraction",
                  "presentation_for_framing"),
    "homology": ("HomologyData", "LinkingMatrix", "SpinCEvaluation", "d3_invariant",
                 "homology_data", "linking_matrix", "spin_c_evaluation"),
    "ledger": ("LedgerState", "LedgerSubject", "LedgerVerdict", "TightnessReport",
               "apply_rules", "assert_fact", "inverse_limit_status", "tight_surgery_ranges"),
    "legendrian": ("InvariantStatus", "LegendrianKnot", "TransverseKnot", "stabilize"),
    "linalg": (),
    "openbook": ("LanternConfiguration", "SurfaceModel", "attach_surgery_twists", "cap_off",
                 "cyclic_words_equal", "free_reduce", "giroux_destabilize",
                 "giroux_stabilize", "homology_action", "lantern_rewrite"),
}

# Each public name and its home module; a submodule's name maps to itself.
_HOMES = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    import importlib

    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
