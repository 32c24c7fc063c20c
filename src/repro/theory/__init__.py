"""Closed-form bounds and schedule-profile theory."""

from .bounds import (
    TABLE1,
    TABLE2,
    BoundEntry,
    eft_disjoint_ratio,
    eft_interval_lower_bound,
    fifo_competitive_ratio,
    fixed_k_lower_bound,
    general_lower_bound,
    inclusive_lower_bound,
    interval_any_lower_bound,
    nested_lower_bound,
)
from .profiles import (
    find_plateau,
    is_nonincreasing,
    profile_leq,
    profile_lt,
    stable_profile,
    total_weighted_distance,
    weighted_distance,
)

__all__ = [
    "BoundEntry",
    "TABLE1",
    "TABLE2",
    "eft_disjoint_ratio",
    "eft_interval_lower_bound",
    "fifo_competitive_ratio",
    "find_plateau",
    "fixed_k_lower_bound",
    "general_lower_bound",
    "inclusive_lower_bound",
    "interval_any_lower_bound",
    "is_nonincreasing",
    "nested_lower_bound",
    "profile_leq",
    "profile_lt",
    "stable_profile",
    "total_weighted_distance",
    "weighted_distance",
]
