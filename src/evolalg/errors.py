class EngineLimitError(RuntimeError):
    """Raised when a computation would exceed a configured engine bound.

    Bounds exist because some engines (support enumeration, Buchberger) have
    exponential worst cases.  Hitting a bound is always reported explicitly,
    never silently truncated.
    """
