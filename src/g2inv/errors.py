"""Exception types shared across the package."""


class G2Error(Exception):
    """Base class of the package's own exception types; bad input is a
    ValueError, which only `InvalidParamsError` of these also is."""


# -- cross-checks -----------------------------------------------------------

class FormulaMismatchError(G2Error):
    """Two independent formulas for the same invariant disagree (the graph
    invariants against their closed forms, or the two routes of
    `log_delta2`), or a reduction loop of `siegel_reduce` did not finish."""


# -- fiber types ------------------------------------------------------------

class InvalidParamsError(G2Error, ValueError):
    """A ValueError: fiber-type parameters have the wrong arity or are not
    positive, or another input is malformed."""


class UnclassifiableError(G2Error):
    """A genus-2 graph matched none of the seven fiber-type shapes."""


# -- theta functions --------------------------------------------------------

class DegenerateThetaNullError(G2Error):
    """An even theta-null is below 1e-8 in modulus: tau is at or near the
    locus where the surface is a product of elliptic curves.

    The printed name of the offending characteristic, such as
    "[1/2 1/2; 1/2 1/2]", is stored on the exception as `characteristic`.
    """

    def __init__(self, message: str, characteristic=None):
        super().__init__(message)
        self.characteristic = characteristic


class QuadratureUnstableError(G2Error):
    """The torus average failed: stderr above ten times its target, a lattice
    sum out of floating-point range, or a substream lost to the theta divisor."""
