"""Small-weight integer matrix constructions, exhaustive verifiers, and
threshold-circuit compilers for the EQUALITY and COMPARISON functions."""

from .circuit import (
    EXACT,
    INPUT,
    LT,
    SUM,
    CircuitFormatError,
    Gate,
    ThresholdCircuit,
    compile_comp_circuit,
    compile_eq_circuit,
    compile_value_set,
    eval_circuit,
    exactify_to_lt,
    exhaustive_check,
    read_circuit,
    write_circuit,
)
from .construct import (
    build_crt,
    choose_primes,
    construct_eq,
    construct_eq_q,
    construction_trace,
    is_prime,
    truncate_columns,
)
from .decode import NotInImageError, OpCounter, decode, encode
from .matrix import (
    AlphabetSpec,
    ConstructionTrace,
    Counterexample,
    IntMatrix,
    MagnitudeError,
    MatrixFormatError,
    checked,
    matvec,
    read_matrix,
    write_matrix,
)
from .search import sample_matrix, search_rmds, suggest_params, theorem3_rate_cap
from .verify import (
    DEFAULT_STEP_CAP,
    BoundsReport,
    CapExceededError,
    RmdsWitness,
    bounds_report,
    crt_residue_check,
    det_bareiss,
    is_eq_q,
    is_mds,
    is_rmds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
