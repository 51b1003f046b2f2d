"""Entropy, pressure and pattern invariants of rank-r subshifts defined by
commuting 0-1 matrix families."""

from .budget import Budget
from .errors import DomainError
from .matrices import (
    Alphabet,
    MatrixFamily,
    entropy_exact,
    load_family,
    log_spectral_radius,
    matrix_power_product,
    spectral_radius,
    validate_family,
    word_count,
)
from .shapes import Shape
from .words import (
    Word,
    compose,
    count_oracle_check,
    enumerate_extensions,
    enumerate_words,
    make_word,
    restrict_prefix,
    restrict_tail,
)
from .dynamics import (
    action_entropy_estimate,
    bowen_entropy_estimate,
    metric,
    separated_count,
)
from .pressure import (
    Potential,
    partition_function_log,
    pressure_estimate,
    pressure_oracle_vertex,
    vertex_potential,
)
from .patterns import (
    build_shift_patterns,
    check_partial_isometry,
    verify_partial_isometries,
)
from .gapsearch import exhaustive_search, gap, random_search
from . import families

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Budget", "DomainError", "MatrixFamily", "Potential",
    "Shape", "Word", "action_entropy_estimate", "bowen_entropy_estimate",
    "build_shift_patterns",
    "check_partial_isometry", "compose", "count_oracle_check",
    "entropy_exact", "enumerate_extensions", "enumerate_words",
    "exhaustive_search", "families", "gap", "load_family",
    "log_spectral_radius", "make_word",
    "matrix_power_product", "metric", "partition_function_log",
    "pressure_estimate", "pressure_oracle_vertex", "random_search",
    "restrict_prefix", "restrict_tail", "separated_count",
    "spectral_radius", "validate_family", "vertex_potential", "word_count",
]
