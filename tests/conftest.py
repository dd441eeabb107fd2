"""Shared fixtures."""

import pytest

from leapssn import hilbert


@pytest.fixture
def counted(monkeypatch):
    """Count SuperLU and Cholesky factorizations and preconditioned CG runs
    in hilbert."""
    counts = {"splu": 0, "cholesky": 0, "pcg": 0, "pcg_failed": 0}
    splu, cho_factor = hilbert.spla.splu, hilbert.sla.cho_factor
    cg = hilbert.cg_certified

    def counted_splu(*args, **kwargs):
        counts["splu"] += 1
        return splu(*args, **kwargs)

    def counted_cho_factor(*args, **kwargs):
        counts["cholesky"] += 1
        return cho_factor(*args, **kwargs)

    def counted_cg(*args, **kwargs):
        x = cg(*args, **kwargs)
        if kwargs.get("precond") is not None:
            counts["pcg"] += 1
            counts["pcg_failed"] += x is None
        return x

    monkeypatch.setattr(hilbert.spla, "splu", counted_splu)
    monkeypatch.setattr(hilbert.sla, "cho_factor", counted_cho_factor)
    monkeypatch.setattr(hilbert, "cg_certified", counted_cg)
    return counts
