"""The error raised when an internal invariant of the library fails."""


class InvariantError(RuntimeError):
    """A computation reached a state its own invariants rule out.

    It signals a defect in the library, not bad input (which raises
    ValueError), and its message names the smallest witness at hand.
    """
