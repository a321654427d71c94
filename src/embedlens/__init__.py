"""embedlens: exact analytics for k-ary distributions over finite alphabets.

Decides Abelian embeddability of a distribution's support exactly, checks
connectivity notions, computes k-wise correlations and noise stability,
materializes the reduction distributions used in the underlying analysis,
and runs dictatorship tests against explicit instances.
"""

from .distributions import (
    Alphabet,
    JointDistribution,
    ProductPowerSampler,
    alphabet,
    decompose_mixture,
    uniform_on,
    univariate,
)
from .embedding import (
    EmbeddingVerdict,
    EmbeddingWitness,
    brute_force_embedding,
    connected,
    constraint_matrix,
    detect_embedding,
    pairwise_connected,
    verify_witness,
)
from .errors import EmbedlensError, ParseError, SizeGuardError, ValidationError
from .functions import (
    CharacterProduct,
    ProductFunction,
    TableFunction,
    character_function,
    efron_stein,
    inner_product,
    noise_apply,
    restrict,
    stability,
    uniform_measure,
)
from .correlation import (
    CorrelationResult,
    best_product_correlation,
    exact_correlation,
    mc_correlation,
    restricted_product_correlation,
)
from .intlattice import IntMatrix, SNFDecomposition, smith_normal_form
from .reduction import (
    StarCouplingParams,
    build_g,
    build_paired_copies,
    build_star_coupling,
    check_coupling_identity,
    conditional_product_given_first,
    conditional_product_given_last,
    star_coupling_params,
)
from .dicttest import (
    Predicate,
    TestInstance,
    run_test_exact,
    run_test_mc,
    validate_instance,
)

__version__ = "0.1.0"
