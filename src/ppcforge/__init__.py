"""Partial Steiner triple systems with a prescribed maximum partial
parallel class: constructions, an exact PPC solver, block-count bounds,
Room squares and one-factorizations, and sequencing search."""

from types import ModuleType as _Module

from .bounds import (
    BoundRecord,
    beta_exact_known,
    beta_lower,
    beta_upper,
    bound_table,
    gap_bound,
    packing_number,
)
from .construct import (
    FACTOR_JOINS,
    ConstructionWitness,
    check_sts27_triples,
    construct_bose,
    factor_join,
    factor_join_odd,
    factor_join_packed,
    max_packing,
    psts7_fixture,
    sweep_grid,
)
from .core import (
    NODE_LIMIT,
    Block,
    Design,
    Exhausted,
    OutOfRange,
    PairViolation,
    ParseError,
    RepeatedPoint,
    SearchTooDeep,
    ToolkitError,
    deserialize,
    read_ppc_comments,
    serialize,
    validate,
)
from .onefactor import (
    FactorSelection,
    RoomSquare,
    room_from_text,
    room_square,
    room_to_text,
    round_robin,
    select_factors,
    validate_room,
)
from .oracle import BetaResult, brute_beta, brute_max_ppc
from .ppc import (
    ExtensionProfile,
    PpcResult,
    certify,
    extension_profile,
    greedy_ppc,
    greedy_transversal,
    solve_max_ppc,
)
from .sequence import (
    SearchOutcome,
    Sequencing,
    check_sequencing,
    find_sequencing,
    sequencing_from_text,
    sequencing_to_text,
    sufficient_conditions,
)

# every public name imported above; pydoc documents only what __all__ lists
__all__ = sorted(n for n, o in globals().items() if n[0] != "_" and not isinstance(o, _Module))

__version__ = "0.1.0"
