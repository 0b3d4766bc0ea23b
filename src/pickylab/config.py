"""Scale bounds for the exact engines.

Everything here is exact arithmetic; the bounds only protect against
accidentally launching an infeasible computation.  They are generous for
desk scale (symmetric groups up to S8 for tables, up to ~10^4 elements
for subnormalizer sweeps).
"""

# Largest degree of a permutation or group, checked before any tuple of
# that degree is built (in ``parse_perm`` and ``named_group``).  Without
# it, an order bound refuses a group only after a chain level of up to n
# tuples of degree n exists, so refusals cost ~n^2: `pickylab sylow S:n
# -p 2` refused S:1000 in 0.26 s at a 137 MB peak and S:2000 in 0.71 s at
# 359 MB (2-vCPU x86-64 host), and `parse_perm("(1,10000000)")` raised
# MemoryError under a 1.5 GB address-space limit.
DEGREE_BOUND = 1_000
# Largest |G| for which all elements may be walked or materialised.
# Every walk streams image tuples from the stabilizer chain, and no group
# object keeps them.  Conjugacy classes hold one conjugation orbit at a
# time, plus the members of cycle types that split into several classes;
# Sym(n) and Alt(n) walk none, their classes come from the partitions of
# n.  Held whole, for one call: a subgroup's element set (TI and covering
# scans), its conjugation key for each subgroup in a normalizer's or
# Sylow orbit, and chain_length's marked double cosets of N, which grow to
# all of G as its one walk of G goes on.
ENUM_BOUND = 100_000
# Largest |G| for which a generic character table is computed; bigger
# symmetric/wreath groups should go through the fast symmetric-group
# evaluator instead.
TABLE_BOUND = 50_000
# Largest |G| for which the element-by-element subnormalizer set is
# computed.
SUBNORMALIZER_BOUND = 10_000
# Largest |G| for which subgroup chain lengths are computed.
CHAIN_LENGTH_BOUND = 10_000
# Largest |G| for which Sylow data is computed: 10!, so S10 is accepted
# (`pickylab sylow S:10 -p 2` takes ~4.5 s and peaks at ~175 MB resident,
# import included, on a 2-vCPU x86-64 host; S11 at p = 2 did not finish in
# 90 s when each Sylow subgroup was keyed by all of its elements, and was
# not run since).
SYLOW_BOUND = 3_628_800
