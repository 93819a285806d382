"""Outcome record for a single verification run.

One :class:`CheckReport` captures one identity check: the identity's name,
where it was evaluated (truncation order and/or a point in the upper half
plane and/or a matrix), whether it passed, and a witness.  For
coefficient-exact checks the witness is the first failing index together
with the two disagreeing values; for floating-point checks it is the
maximum observed error against the tolerance.

:class:`MembershipError` lives here too, so that the command line can catch
it without importing the group algebra, and :class:`Record`, the equality
and hashing of the package's value types.
"""

from __future__ import annotations


class MembershipError(ValueError):
    """A matrix was outside the congruence subgroup an operation requires."""


class Record:
    """Equality and hashing by the values of the __slots__ fields, for the
    package's value records (reports, matrices, words)."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class CheckReport(Record):
    __slots__ = ("identity", "passed", "order", "tau", "matrix", "error", "tol", "witness")

    def __init__(self, identity: str, passed: bool, order: int | None = None,
                 tau: complex | None = None, matrix: str | None = None, error: float | None = None,
                 tol: float | None = None, witness: str | None = None):
        if not passed and witness is None and error is None:
            raise ValueError("a failing report needs a witness or an error value")
        self.identity, self.passed, self.order, self.tau = identity, passed, order, tau
        self.matrix, self.error, self.tol, self.witness = matrix, error, tol, witness

    def to_json_dict(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "tau": [self.tau.real, self.tau.imag] if self.tau is not None else None,
            "matrix": self.matrix,
            "error": self.error,
            "tol": self.tol,
            "pass": self.passed,
        }
        if self.order is not None:
            out["order"] = self.order
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def describe(self) -> str:
        """One human-readable line, stable enough for CI logs."""
        bits = [f"{'PASS' if self.passed else 'FAIL'} {self.identity}"]
        if self.order is not None:
            bits.append(f"order={self.order}")
        if self.tau is not None:
            bits.append(f"tau={self.tau.real:g}{self.tau.imag:+g}i")
        if self.matrix is not None:
            bits.append(f"matrix={self.matrix}")
        if self.error is not None:
            bits.append(f"error={self.error:.3e}")
        if self.tol is not None:
            bits.append(f"tol={self.tol:.1e}")
        if self.witness is not None:
            bits.append(f"witness: {self.witness}")
        return "  ".join(bits)
