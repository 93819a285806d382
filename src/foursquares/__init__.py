"""Exact q-series arithmetic, congruence-subgroup algebra, and numerical
verification of the transformation laws behind the four-squares theorem.

Importing the package loads no submodule: each command-line run imports
only the modules its subcommand uses.
"""

__version__ = "0.1.0"
