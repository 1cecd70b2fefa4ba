"""Fixtures shared by the test modules."""

import pytest

from quadalg import odecheck as ode


class EigensolveSpy:
    """The oracle's eigensolves: levels holds the grid size of every
    _extreme_levels call, index the (d, e, lo, hi) of every eigh_tridiagonal
    call, the index form (LAPACK bisection)."""

    def __init__(self, monkeypatch):
        self.levels, self.index = [], []
        extreme, eigh = ode._extreme_levels, ode.eigh_tridiagonal

        def spy_levels(diag, off, levels, top, hint=None):
            self.levels.append(len(diag))
            return extreme(diag, off, levels, top, hint)

        def spy_index(d, e, lo, hi):
            self.index.append((d, e, lo, hi))
            return eigh(d, e, lo, hi)

        monkeypatch.setattr(ode, "_extreme_levels", spy_levels)
        monkeypatch.setattr(ode, "eigh_tridiagonal", spy_index)

    @property
    def index_sizes(self) -> list:
        return [len(d) for d, _, _, _ in self.index]

    def clear(self) -> None:
        self.levels.clear()
        self.index.clear()


@pytest.fixture
def eigensolves(monkeypatch):
    """An EigensolveSpy recording from the test's start; clear() starts it
    again."""
    return EigensolveSpy(monkeypatch)
