"""Exception types shared across the package."""


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed identity failed to hold.

    This always indicates an implementation bug (or a genuine theorem
    contradiction) and is never raised for bad user input.
    """


class NotDynkinTypeA(ValueError):
    """The unit form admits no quiver realization."""


class NotConnected(ValueError):
    """The form or quiver is not connected; the invariants computed here are
    defined for connected ones only."""
