"""Exception hierarchy shared across the package."""


class QcslabError(Exception):
    """Base class for all qcslab errors."""


class ValidationError(QcslabError):
    """Malformed input: bad parameters, schemas, or operator structure."""


class CutoffError(QcslabError):
    """The requested state does not fit the Fock cutoff (trace deficit too large)."""


class HeadroomError(CutoffError):
    """Two-copy interference would spill past the cutoff (supports s_a + s_b > dim - 1)."""


class MemoryGuardError(CutoffError):
    """The largest two-copy beam-splitter block exceeds the configured memory guard."""


class DegenerateDenominatorError(QcslabError):
    """Alternating photon-number sum (purity estimate) vanished below resolution."""


class RoundoffBudgetError(QcslabError):
    """Accumulated negative-probability clipping exceeded the round-off budget."""


class GridError(QcslabError):
    """Phase-space grid failed its normalization check (∫W against Tr)."""
