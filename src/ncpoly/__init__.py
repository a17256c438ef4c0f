"""Non-commutative polynomials as admissible linear systems.

The pipeline: parse or build an exact-rational polynomial over
non-commuting letters, represent it as an upper unitriangular linear
system, minimize that system (its dimension is then the polynomial's
rank), optionally factor it through zero-block transformations, and
evaluate it on matrix tuples with far fewer matrix products than
term-by-term evaluation.
"""

from .errors import FormatError, ParseError
from .evaluator import (
    EvalReport,
    MatrixTuple,
    complexity_bounds,
    count_n,
    count_ns,
    count_nt,
    dump_matrix_tuple,
    evaluate_block_factorization,
    evaluate_left,
    evaluate_product,
    evaluate_right,
    load_matrix_tuple,
    random_rational_tuple,
)
from .factorizer import (
    FactorSplit,
    check_k_reducibility_pattern,
    extract_factors,
    factor_atoms,
    find_split,
)
from .freepoly import (
    Alphabet,
    NcPolynomial,
    Word,
    naive_evaluate,
    naive_mult_count,
    parse,
    word_key,
)
from .minimizer import (
    build_als,
    is_minimal,
    minimize,
    rank_of,
    solve_left_minimization,
    solve_right_minimization,
)
from .realization import (
    AdmissibleTransformation,
    Als,
    BlockFactorization,
    LinearEntry,
    als_add,
    als_mul,
    apply_transformation,
    block_diag,
    dump_als,
    dump_factors,
    entry_grid,
    hstack,
    left_companion,
    load_als,
    load_factors,
    minimal_monomial,
    restore_polynomial_form,
    right_companion,
    verify_block_factorization,
    vstack,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleTransformation",
    "Alphabet",
    "Als",
    "BlockFactorization",
    "EvalReport",
    "FactorSplit",
    "FormatError",
    "LinearEntry",
    "MatrixTuple",
    "NcPolynomial",
    "ParseError",
    "Word",
    "als_add",
    "als_mul",
    "apply_transformation",
    "block_diag",
    "build_als",
    "check_k_reducibility_pattern",
    "complexity_bounds",
    "count_n",
    "count_ns",
    "count_nt",
    "dump_als",
    "dump_factors",
    "dump_matrix_tuple",
    "entry_grid",
    "evaluate_block_factorization",
    "evaluate_left",
    "evaluate_product",
    "evaluate_right",
    "extract_factors",
    "factor_atoms",
    "find_split",
    "hstack",
    "is_minimal",
    "left_companion",
    "load_als",
    "load_factors",
    "load_matrix_tuple",
    "minimal_monomial",
    "minimize",
    "naive_evaluate",
    "naive_mult_count",
    "parse",
    "rank_of",
    "random_rational_tuple",
    "restore_polynomial_form",
    "right_companion",
    "solve_left_minimization",
    "solve_right_minimization",
    "verify_block_factorization",
    "vstack",
    "word_key",
]
