"""Exception types shared across the package.

Each error carries enough context to be reported as machine-readable JSON by
the CLI; `exit_code` groups errors into the documented CLI exit classes
(1 usage, 2 infeasible input, 3 sampler exhaustion, 4 oracle size guard).
"""


class DegconnError(Exception):
    exit_code = 1


class SequenceError(DegconnError):
    """Base for degree-sequence rejection reasons."""
    exit_code = 2


class OddSum(SequenceError):
    pass


class NotGraphical(SequenceError):
    pass


class ZeroDegree(SequenceError):
    pass


class NegativeDegree(SequenceError):
    pass


class InfeasibleFamily(SequenceError):
    """Named family parameters do not produce a usable sequence."""
    pass


class PartialMatching(DegconnError):
    """A full matching was required but unmatched half-edges remain."""
    exit_code = 2


class InvalidSwitch(DegconnError):
    """A switching precondition failed; message names the violated condition."""
    exit_code = 2


class AttemptsExhausted(DegconnError):
    """Rejection sampler hit its attempt budget without a simple graph."""
    exit_code = 3

    def __init__(self, attempts):
        super().__init__(f"no simple graph after {attempts} attempts")
        self.attempts = attempts

    def __reduce__(self):
        # rebuild from the attempt count, not the formatted message, so the
        # error survives pickling (e.g. out of a process-pool worker)
        return type(self), (self.attempts,)


class TooLarge(DegconnError):
    """Input exceeds a size guard: exact enumeration or the switch chain's
    adjacency memory."""
    exit_code = 4


class NotExtendable(DegconnError):
    """Partial matching admits no extension to a simple graph."""
    exit_code = 2


class TrialsTooFew(DegconnError):
    """A trial count below 1 (census, sample, tightness, two-leaf statistics)."""
    exit_code = 2
