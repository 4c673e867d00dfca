"""Exception types shared across the package."""


class ZecapError(Exception):
    """Base class for errors raised by this package."""


class InputError(ZecapError):
    """A caller-supplied value violates a documented precondition."""


class BudgetError(ZecapError):
    """A resource budget (vertices, nodes, cliques, stages) ran out.

    Carries whatever partial result was available when the budget died,
    so callers never have to re-derive work that was already done, and
    ``used``, the amount spent or needed where known: nodes searched, cliques
    listed, or the vertices or adjacency bytes a size stop needed.  Size stops come
    from ``graphs.require_fits`` and node stops from ``graphs.NodeBudget``.
    """

    def __init__(self, message, partial=None, used=None, reason=None):
        super().__init__(message)
        self.partial = partial
        self.used = used
        self.reason = reason or message


class ConvergenceError(ZecapError):
    """An iterative solver could not reach the requested tolerance.

    Carries the certified result it did reach, if any, as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
