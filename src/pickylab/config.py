"""Scale bounds for the exact engines.

Everything here is exact arithmetic; the bounds only protect against
accidentally launching an infeasible computation.  They are generous for
desk scale (symmetric groups up to S8 for tables, up to ~10^4 elements
for subnormalizer sweeps).
"""

# Largest |G| for which all elements may be walked or materialised.
# Every walk streams image tuples from the stabilizer chain, and no group
# object keeps them.  Conjugacy classes hold one conjugation orbit at a
# time, plus the members of cycle types that split into several classes;
# Sym(n) and Alt(n) walk none, their classes come from the partitions of
# n.  Held whole, for one call: a subgroup's element set (normalizers,
# Sylow orbits, TI and covering scans) and chain_length's marked double
# cosets of N, which grow to all of G as its one walk of G goes on.
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
# (S10 at p = 2 takes ~23 s on a 2-vCPU x86-64 host; S11 at p = 2 did not
# finish in 90 s).
SYLOW_BOUND = 3_628_800
