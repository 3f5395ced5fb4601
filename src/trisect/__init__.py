"""Trisection diagrams of closed oriented 4-manifolds.

Curve systems and diagrams with their moves (handle slides, stabilization,
connected sum), manifold invariants (homology, intersection form), the
associated finitely presented groups, and the eight-group cube of quotients.
"""

from .words import (
    Word,
    abelianize_word,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
    token_code,
)
from .intmatrix import (
    IntMatrix,
    quotient_invariants,
    symplectic_pairing,
)
from .diagrams import (
    CutSystem,
    FAMILY_NAMES,
    HeegaardDiagram,
    InvalidCutSystemError,
    STANDARD_NAMES,
    TrisectionDiagram,
    connected_sum,
    cut_system,
    handle_slide,
    heegaard_diagram,
    heegaard_pairs,
    slide_family,
    stabilize,
    standard_diagram,
    trisection_diagram,
)
from .invariants import (
    FormInvariants,
    NotHomologicallyStandard,
    PAIR_NAMES,
    PoincareReport,
    euler_characteristic,
    form_invariants,
    homology,
    intersection_form,
    k_triple,
    pair_k,
    poincare_candidate_check,
)
from .groups import (
    CubeReport,
    EnumerationRefused,
    GroupTrisectionCube,
    MalformedCubeError,
    Presentation,
    abelianize_presentation,
    build_cube,
    count_homs,
    diagram_hom_count,
    pi1_presentation,
    presentation,
    reduced_pi1,
    tietze_simplify,
    verify_cube,
)
from .textio import ParseError, emit_cube_dot, format_abelian, parse, serialize

__version__ = "0.1.0"
