"""Rank and unrank bracelets (cyclic words up to rotation and reflection)."""

from .api import RankBreakdown, count_bracelets, rank_bracelet, unrank_bracelet
from .enclosing import rank_enclosing
from .errors import InternalError
from .necklace import rank_necklaces
from .oracle import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    enumerate_class,
    oracle_enclosing,
    oracle_rank,
)
from .palindromic import rank_palindromic
from .words import Alphabet

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "InternalError",
    "RankBreakdown",
    "count_bracelets",
    "enumerate_class",
    "oracle_enclosing",
    "oracle_rank",
    "rank_bracelet",
    "rank_enclosing",
    "rank_necklaces",
    "rank_palindromic",
    "unrank_bracelet",
]
