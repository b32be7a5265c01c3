"""Computational toolkit for tame local Galois theory over the rationals.

Three capabilities, each exact at desk scale:

* group-level eligibility: which finite groups pass the cyclic/Frobenius/
  quaternion classification predicates, with concrete obstruction witnesses
  (``tamegal.groups``);
* tame local realizability: which groups occur as tamely ramified local
  Galois groups at a given residue cardinality, and feasibility of prescribed
  (p, e, f) local data (``tamegal.local_tame``);
* specialization checks on explicit Kummer covers X^d - c*t^m: a closed-form
  predictor for the local invariants of specializations, validated against an
  independent finite-field oracle (``tamegal.covers``, ``tamegal.padic_oracle``),
  plus the prime stratification driving the degree laws (``tamegal.prime_strata``).
"""

__version__ = "0.1.0"

from .covers import (
    BranchDatum,
    KummerCover,
    SpecializationReport,
    branch_data,
    parse_cover_spec,
    predict_specialization,
    sweep,
    verify_beckmann,
)
from .groups import (
    ClassificationReport,
    FiniteGroup,
    FrobeniusDecomposition,
    ObstructionWitness,
    SylowShape,
    alternating,
    classify,
    cyclic,
    detect_obstructions,
    dihedral,
    direct_product,
    frobenius_cyclic_decomposition,
    generalized_quaternion,
    parse_group_spec,
    semidirect_cyclic,
    sylow_shape,
    symmetric,
)
from .local_tame import (
    GrunwaldFeasibility,
    LocalExtensionSpec,
    TamePair,
    c4_embeddable_quadratic,
    cyclic_tame_exists,
    enumerate_tame_pairs,
    grunwald_feasible,
    parse_local_spec,
)
from .padic_oracle import KummerLocalInvariants, kummer_local_invariants
from .prime_strata import (
    PrimeStratum,
    biquadratic_split,
    enumerate_stratum,
    lemma32_prime_set,
    stratum_of,
)
