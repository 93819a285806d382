"""Exact q-series arithmetic, congruence-subgroup algebra, and numerical
verification of the transformation laws behind the four-squares theorem."""

from .qseries import QSeries
from .report import CheckReport

__all__ = ["QSeries", "CheckReport"]

__version__ = "0.1.0"
