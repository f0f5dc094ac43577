"""Exception hierarchy shared across the package."""


class QcslabError(Exception):
    """Base class for all qcslab errors."""


class ValidationError(QcslabError):
    """Malformed input: bad parameters, schemas, or operator structure."""


class CutoffError(QcslabError):
    """The requested state does not fit the Fock cutoff (trace deficit too large)."""


class MemoryGuardError(CutoffError):
    """A two-copy input, its largest full beam-splitter block, or a Wigner grid
    (more than MEMORY_GUARD_DIM² points) exceeds the memory guard."""


class DegenerateDenominatorError(QcslabError):
    """Alternating photon-number sum (purity estimate) vanished below resolution."""


class RoundoffBudgetError(QcslabError):
    """Accumulated negative-probability clipping exceeded the round-off budget."""


class GridError(QcslabError):
    """Phase-space grid failed its normalization check (∫W against Tr)."""
