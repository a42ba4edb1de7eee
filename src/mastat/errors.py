"""Exception hierarchy for mastat.

Every library-raised error derives from MasError. Errors caused by bad
caller input additionally derive from InputError (a ValueError), so the
CLI can map them to its input-error exit code.
"""


class MasError(Exception):
    pass


class InputError(MasError, ValueError):
    pass


class LengthMismatch(InputError):
    pass


class NegativeProb(InputError):
    pass


class MassNotOne(InputError):
    pass


class LambdaOutOfRange(InputError):
    pass


class BadInterval(InputError):
    pass


class BadParams(InputError):
    pass


class InfiniteAtom(InputError):
    pass


class EmptyFamily(InputError):
    pass


class WeightMismatch(InputError):
    pass


class DuplicateRates(InputError):
    pass


class NegativeTime(InputError):
    pass


class NonpositivePrize(InputError):
    pass


class BadSupport(InputError):
    pass


class SupportBlowup(MasError):
    """A support size exceeded the configured cap (silent-slowdown guard)."""


class NoKDominance(MasError):
    """The strict CGF-dominance hypothesis fails; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoKDominanceOnNegatives(NoKDominance):
    pass


class BudgetExhausted(MasError):
    """Escalation budget ran out; carries the best gap of the rungs swept, the point mass first."""

    def __init__(self, message, worst_gap=None):
        super().__init__(message)
        self.worst_gap = worst_gap


class InfeasibleC(InputError):
    """Indifference ratio outside the feasible interval (1 - eta, 1)."""

    def __init__(self, message, eta=None):
        super().__init__(message)
        self.eta = eta


class IllConditioned(MasError):
    pass
