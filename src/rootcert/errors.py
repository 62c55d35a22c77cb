"""Exception hierarchy shared across the package."""


class RootCertError(Exception):
    """Base class for errors raised by this package."""


class RootFindingFailed(RootCertError):
    """The root finder could not produce a usable answer."""


class NonConvergence(RootFindingFailed):
    """Simultaneous iteration did not converge within the iteration budget."""


class ZeroPolynomial(RootCertError, ValueError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class DegenerateMoebius(RootCertError, ValueError):
    """The coefficient tuple (a, b, c, d) has a (near-)vanishing determinant."""


class UnknownPreset(RootCertError, ValueError):
    """No built-in domain with the requested name."""


class DegenerateSample(RootCertError):
    """The region sampler kept landing on unusable points (near the pole)."""


class DegreeOutOfRange(RootCertError, ValueError):
    """Polynomial degree exceeds the operator's definition horizon."""


class ZeroOperator(RootCertError, ValueError):
    """The operator is identically zero on its horizon."""


class ZeroInput(RootCertError, ValueError):
    """The nonvanishing search received an identically zero polynomial."""


class AllImagesZero(RootCertError):
    """Every basis image T[1], ..., T[z^n] vanishes, so no image has a gcd."""


class ParseError(RootCertError, ValueError):
    """An operator or domain specification could not be parsed."""


class HorizonError(ParseError):
    """An operator specification mentions an index beyond its declared horizon."""
