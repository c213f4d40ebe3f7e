"""cycmat: matroid computation with cyclic-ordering verification.

Bitmask independence oracles, transversal matroids and their duals, the
dual interval family and its relatives (wheels, whirls, spikes, uniform
matroids, truncations), certificates for nearly and fully structured cyclic
orderings, weak-map and quotient relations, and a machine-checked refutation
of the rank-(n/2 + 1) quotient question.
"""

from .bitset import CapExceeded
from .core import (
    CircuitFamily,
    GroundSet,
    MatroidOracle,
    VerificationReport,
    oracle_from_circuits,
    orthogonality_check,
    orthogonality_violation,
    validate_circuit_axioms,
    verify_matroid_axioms,
)
from .constructions import PairPartition, free_spike, truncate, uniform, wheel, whirl
from .cyclic import (
    FULL,
    NEARLY,
    NEITHER,
    CyclicOrdering,
    OrderingCertificate,
    STParams,
    certify,
    find_orderings,
    natural_ordering,
    size_bounds,
)
from .transversal import (
    BipartitePresentation,
    IntervalPresentation,
    MatchingResult,
    classify_circuit,
    classify_circuits,
    dual_transversal,
    interval_presentation,
    max_matching,
    psi,
    psi_basis_test,
    self_duality_map,
    transversal_matroid,
)
from .weakmap import (
    ElementBijection,
    is_quotient,
    is_weak_map,
    weak_image_of_truncated_psi,
)
from .counterexample import (
    ForcedLedger,
    TwoBlockSpec,
    forced_dependents,
    psi_two_block_circuits,
    rank_bound_contradiction,
)

__version__ = "0.1.0"
