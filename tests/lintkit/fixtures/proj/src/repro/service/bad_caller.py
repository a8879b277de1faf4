"""RPL004 fixture: relative internal imports from the service layer."""

from ..core.dp import solve_rank_dp  # flagged: relative spelling of repro.core
from .. import assign  # flagged: `from .. import assign` form

__all__ = ["solve_rank_dp", "assign"]
