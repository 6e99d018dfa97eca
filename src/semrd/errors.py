"""Exception hierarchy shared across the toolkit."""


class SemrdError(Exception):
    """Base class for all toolkit errors."""


class ProbabilityError(SemrdError, ValueError):
    """Invalid pmf, alphabet, or distortion-table input."""


class AlphabetMismatchError(ProbabilityError):
    """Axes or distortion tables refer to incompatible alphabets."""


class InfeasibleDistortionError(SemrdError, ValueError):
    """Requested distortion lies below the achievable floor (no code attains it)."""


class RegionError(SemrdError, ValueError):
    """Closed-form expression queried outside its proven validity region.

    The numerical solver remains applicable: figure/sweep callers should send
    queries through :func:`semrd.models.route`, which solves what it leaves out.
    """


class SolverError(SemrdError, RuntimeError):
    """Numerical failure inside the alternating-minimization solver."""


class ConfigError(SemrdError, ValueError):
    """Sweep/figure configuration violates its schema.

    Messages carry the offending field path, e.g. ``params.p: must lie in
    [0, 0.5]``.
    """
