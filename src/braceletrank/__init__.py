"""Rank and unrank bracelets (cyclic words up to rotation and reflection)."""

from .api import RankBreakdown, count_bracelets, rank_bracelet, unrank_bracelet
from .enclosing import build_SE, rank_enclosing
from .errors import InternalError
from .necklace import count_all_rotations_geq, count_lyndon_below, rank_necklaces
from .oracle import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    enumerate_class,
    oracle_enclosing,
    oracle_rank,
)
from .palindromic import (
    ge,
    gs,
    rank_palindromic,
    size_PE,
    size_PO,
    size_PS,
    size_X,
    total_palindromic,
)
from .words import (
    Alphabet,
    CanonicalForms,
    bracelet_representative,
    canonical_forms,
    floor_necklace,
    is_necklace,
    is_palindromic_necklace,
    lyndon_prefix_length,
    longest_suffix_prefix_match,
    min_rotation,
    period,
    power,
    reverse_word,
    rotate,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "CanonicalForms",
    "canonical_forms",
    "DEFAULT_BUDGET",
    "RankBreakdown",
    "bracelet_representative",
    "build_SE",
    "count_all_rotations_geq",
    "count_bracelets",
    "count_lyndon_below",
    "enumerate_class",
    "floor_necklace",
    "ge",
    "gs",
    "InternalError",
    "is_necklace",
    "is_palindromic_necklace",
    "lyndon_prefix_length",
    "longest_suffix_prefix_match",
    "min_rotation",
    "oracle_enclosing",
    "oracle_rank",
    "period",
    "power",
    "rank_bracelet",
    "rank_enclosing",
    "rank_necklaces",
    "rank_palindromic",
    "reverse_word",
    "rotate",
    "size_PE",
    "size_PO",
    "size_PS",
    "size_X",
    "total_palindromic",
    "unrank_bracelet",
]
