"""Fast exact character values for symmetric groups and their wreath
squares S_n wr C2.

Irr(S_n) is indexed by partitions; values are computed by the recursive
border-strip rule using beta-numbers (first-column hook lengths): removing
a strip of length l from a partition with beta-set B picks b in B with
b - l >= 0 not in B, and the sign is (-1)^(number of beta-numbers strictly
between b - l and b).  Degrees come from the hook length formula, which is
kept as an independent cross-check of the recursion at the identity.

Irr(S_n wr C2) is indexed by unordered pairs {alpha, beta} of distinct
partitions of n (induced characters, degree 2 f^alpha f^beta) and by pairs
(alpha, epsilon) with epsilon in {0, 1} (the two extensions of the
diagonal, degree (f^alpha)^2).  Values are only needed on the base
subgroup S_n x S_n, where the two extensions agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import InvalidArgument
from .exactnum import p_part
from .permgroup import partitions

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(p > 0 for p in parts)


def hook_lengths(lam: Partition) -> list[list[int]]:
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    return [
        [(row - j) + (cols[j] - i) - 1 for j in range(row)]
        for i, row in enumerate(lam)
    ]


@lru_cache(maxsize=None)
def degree(lam: Partition) -> int:
    """Hook length formula: n! divided by the product of all hook lengths."""
    if not is_partition(lam):
        raise InvalidArgument(f"{lam} is not a partition")
    n = sum(lam)
    prod = 1
    for row in hook_lengths(lam):
        for h in row:
            prod *= h
    return factorial(n) // prod


def _beta_set(lam: Partition) -> tuple[int, ...]:
    r = len(lam)
    return tuple(lam[i] + r - 1 - i for i in range(r))


def _partition_from_betas(betas: tuple[int, ...]) -> Partition:
    bs = sorted(betas, reverse=True)
    r = len(bs)
    parts = tuple(b - (r - 1 - i) for i, b in enumerate(bs))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    """Character value chi_lam at cycle type mu, |lam| = |mu|, mu sorted
    descending; pure border-strip recursion (no degree shortcut, so the
    hook length formula stays an independent oracle)."""
    if not lam:
        return 1
    length = mu[0]
    rest = mu[1:]
    betas = _beta_set(lam)
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - length
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_lam = _partition_from_betas(tuple(nb if c == b else c for c in betas))
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def mn_value(lam: Partition, mu) -> int:
    """Exact value of the irreducible S_n character indexed by lam at the
    class of cycle type mu (fixed points included or not)."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if not is_partition(lam) or (mu and not is_partition(mu)):
        raise InvalidArgument("arguments must be partitions")
    n = sum(lam)
    if sum(mu) < n:
        mu = mu + (1,) * (n - sum(mu))
    if sum(mu) != n:
        raise InvalidArgument(f"cycle type of size {sum(mu)} does not match |lam| = {n}")
    return _mn(lam, mu)


# ----------------------------------------------------------------------
# S_n wr C2.

@dataclass(frozen=True)
class WreathLabel:
    """Label of an irreducible character of S_n wr C2: an unordered pair of
    distinct partitions, or a diagonal partition with an extension bit."""

    first: Partition
    second: Partition
    extension: int | None  # None for pair labels; 0/1 for diagonal labels

    @property
    def is_diagonal(self) -> bool:
        return self.extension is not None


def wreath_labels(n: int) -> tuple[WreathLabel, ...]:
    """All C(p(n), 2) + 2 p(n) labels, deterministic order."""
    ps = partitions(n)
    out = []
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            out.append(WreathLabel(a, b, None))
    for a in ps:
        out.append(WreathLabel(a, a, 0))
        out.append(WreathLabel(a, a, 1))
    return tuple(out)


def wreath_degree(label: WreathLabel) -> int:
    if label.is_diagonal:
        return degree(label.first) ** 2
    return 2 * degree(label.first) * degree(label.second)


def wreath_value_at_base(label: WreathLabel, g1_type, g2_type) -> int:
    """Value at a base element (g1, g2) of S_n x S_n, given by cycle types.

    Pair label {a, b}: chi_a(g1) chi_b(g2) + chi_a(g2) chi_b(g1).
    Diagonal label (a, eps): chi_a(g1) chi_a(g2), the same for both
    extensions.  Values on the swap coset are out of scope.
    """
    a, b = label.first, label.second
    if label.is_diagonal:
        return mn_value(a, g1_type) * mn_value(a, g2_type)
    return mn_value(a, g1_type) * mn_value(b, g2_type) + mn_value(a, g2_type) * mn_value(
        b, g1_type
    )


# ----------------------------------------------------------------------
# The S_16 / S_8 wr C2 comparison at an 8-cycle.

def table1_report() -> dict:
    """Nonzero absolute character values at an 8-cycle (with 8 fixed
    points), paired with the 2-part of the degree, with multiplicities:
    once over Irr(S_16) and once over Irr(S_8 wr C2) at the same element
    embedded in the base as (8-cycle, id) for the blocks {1..8}, {9..16}.

    Returns both multisets plus signed values for the strong-form
    comparison.
    """

    def tally(pairs):
        """(|value|, 2-part) and (value, 2-part) multisets of the nonzero
        values among (value, degree) pairs."""
        unsigned: dict[tuple[int, int], int] = {}
        signed: dict[tuple[int, int], int] = {}
        for v, deg in pairs:
            if v == 0:
                continue
            t = p_part(deg, 2)
            unsigned[(abs(v), t)] = unsigned.get((abs(v), t), 0) + 1
            signed[(v, t)] = signed.get((v, t), 0) + 1
        return unsigned, signed

    x16 = (8,) + (1,) * 8
    left, left_signed = tally((mn_value(lam, x16), degree(lam)) for lam in partitions(16))
    g1, g2 = (8,), (1,) * 8
    right, right_signed = tally(
        (wreath_value_at_base(label, g1, g2), wreath_degree(label)) for label in wreath_labels(8)
    )
    return {
        "left": left,
        "right": right,
        "left_signed": left_signed,
        "right_signed": right_signed,
        "equal": left == right,
        "equal_signed": left_signed == right_signed,
    }


def table1_rows(report: dict | None = None) -> list[tuple[int, int, int]]:
    """The (value, 2-part, multiplicity) rows sorted by (2-part, value)."""
    report = report or table1_report()
    return [
        (value, two_part, mult)
        for (two_part, value), mult in sorted(
            ((k[1], k[0]), m) for k, m in report["left"].items()
        )
    ]
