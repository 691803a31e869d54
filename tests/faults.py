"""Planted faults that the verify and CLI tests share.

Each one patches the package through ``monkeypatch``, so it is undone
when the test ends, and each must end in a report of failed checks,
never a traceback.
"""

from __future__ import annotations

from symrank import ffield, motivic
from symrank.laurent import L, ONE


def full_rank_count_one_high(monkeypatch):
    """Make every enumerated histogram's full-rank count one too high, so
    p - 1 no longer divides it."""
    enumerate_rank_counts = ffield.enumerate_rank_counts

    def one_high(n, field, budget=ffield.DEFAULT_BUDGET):
        hist = enumerate_rank_counts(n, field, budget)
        return ffield.RankHistogram(n, hist.p, hist.counts[:n] + (hist.counts[n] + 1,))

    monkeypatch.setattr(ffield, "enumerate_rank_counts", one_high)


def first_factor_of_row_4_mistranscribed(monkeypatch):
    """Make the closed form's first factor of row 4 L^4 + 1, so every
    later division in that row leaves a remainder."""
    running_product = motivic._running_product

    def mistranscribed(n, k):
        if n == 4 and motivic._row[0] != 4:
            motivic._row = (4, (ONE, L**4 + 1))
        return running_product(n, k)

    monkeypatch.setattr(motivic, "_row", (0, (ONE,)))
    monkeypatch.setattr(motivic, "_running_product", mistranscribed)
