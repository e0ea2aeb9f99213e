"""Exception hierarchy shared across the solver library.

User-facing errors (bad instances, infeasible requests) derive from
:class:`UserError`; everything else signals an internal defect or a
numerical breakdown and derives from :class:`InternalError`.  The CLI
maps the former to exit code 1 and the latter to exit code 2.
"""


class AuditGamesError(Exception):
    """Base class for all library errors."""


class UserError(AuditGamesError):
    """Invalid input or an infeasible request."""


class InternalError(AuditGamesError):
    """Numerical breakdown or violated internal invariant."""


# --- model ---------------------------------------------------------------

class GameValidationError(UserError):
    """Instance violates a model invariant.  Carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class UsageError(UserError):
    """Bad command line or malformed input file."""


# --- poly ----------------------------------------------------------------

class DegreeCapExceeded(InternalError):
    pass


class ZeroPolynomial(AuditGamesError):
    """Every point is a root; the caller must special-case this."""


class PrecisionUnachievable(InternalError):
    """Requested root radius is below 2^-52, past a double's spacing on
    (0, 1), or two roots lie too close to separate at that radius."""


# --- lp ------------------------------------------------------------------

class NumericalBreakdown(InternalError):
    """HiGHS ended without an optimum, infeasibility or unboundedness."""


# --- constraints ---------------------------------------------------------

class ResourceCapExceeded(UserError):
    """Naive extraction refused: 2^k subsets would be too many."""


class EnumerationCapExceeded(UserError):
    """Enumeration aborted at the configured cap.

    ``constraint_find`` raises it when the connected subgraphs exceed the
    cap.  fpt and fptas extract C through ``coverage_set``, which walks the
    2^k resource subsets instead when those are fewer, so for them the cap
    bounds the smaller of the two enumerations and this is raised only
    when both exceed it.
    """

    def __init__(self, cap, partial_count):
        self.cap = cap
        self.partial_count = partial_count
        super().__init__(
            f"connected subgraph enumeration exceeded cap {cap} "
            f"(count reached {partial_count})"
        )


# --- solvers -------------------------------------------------------------

class AllProgramsInfeasible(UserError):
    """No (target, punishment) pair admits a feasible strategy."""


class VerificationFailed(InternalError):
    """A recovered solution violates the original program constraints."""


class DegenerateDenominator(InternalError):
    """Substitution denominator vanished with a nonzero numerator."""


class Infeasible(UserError):
    """Requested subproblem has no feasible point."""


class NumericalResidual(InternalError):
    """Decomposition reconstruction error exceeded tolerance."""


class NonpositiveKappa(UserError):
    """Cone rewrite requires a strictly positive left-hand constant."""


class DivisibilityError(UserError):
    """Benchmark configuration does not split into equal groups."""
