"""Exact complex character tables.

The table is computed by the class-algebra method of Dixon ("High speed
computation of group characters", 1967) and Schneider ("Dixon's character
table algorithm revisited", 1990): the class-sum matrices commute and their
common eigenspaces over a prime field F_q (q = 1 mod exponent(G), q >
2*sqrt(|G|)) are one-dimensional, one per irreducible character.  The
matrices are built one at a time, smallest class first, until every common
eigenspace is a line.  Central character values mod q determine the
degrees, and the exact cyclotomic values are recovered through the
finite-field discrete Fourier relation: the multiplicity of each eigenvalue
zeta_m^t of a representing matrix is an ordinary integer below q, so its
residue determines it.

Sym(n) on its n points (recognised by its order, see
``permgroup.natural_kind``) takes its table from ``symfast`` instead: the
border-strip value of each partition at each class's cycle type, and the
hook-length degrees, in the same row order as every other table.  Dixon's
build (``_dixon_table``) stays the path of every other group, Alt(n)
included, and the test oracle of the symfast path.

Every table is verified before it is returned: both orthogonality
relations hold exactly, the degree squares sum to |G|, and the value at an
inverse class equals the complex conjugate value.  There is no floating
point anywhere.
"""

from __future__ import annotations

import threading
import weakref
from fractions import Fraction

from .config import ENUM_BOUND, TABLE_BOUND
from .errors import EngineDefect, InvalidArgument
from .exactnum import Cyclotomic, is_prime, p_part, prime_factors
from . import symfast
from .permgroup import (
    SYMMETRIC,
    ConjugacyClass,
    PermGroup,
    Perm,
    _conjugator,
    _identity,
    _mul,
    _orbit,
    check_order_bound,
    conjugacy_classes,
    exponent,
    find_same_subgroup,
    natural_kind,
    partitions,
)

# ----------------------------------------------------------------------
# Linear algebra over F_q.

def _rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _kernel_basis(mat: list[list[int]], q: int) -> list[list[int]]:
    """Basis of the null space of mat (rows x cols), deterministic order."""
    n = len(mat)
    rref, pivots = _rref(mat, q)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rref[i][fc]) % q
        basis.append(v)
    return basis


def _charpoly_hessenberg(A: list[list[int]], q: int) -> list[int]:
    """Characteristic polynomial of A over F_q, coefficients ascending,
    monic.  Hessenberg reduction followed by the standard recurrence."""
    n = len(A)
    H = [row[:] for row in A]
    for m in range(1, n - 1):  # zero out column m-1 below row m
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(H[m][m - 1], q - 2, q)
        for i in range(m + 1, n):
            if H[i][m - 1]:
                u = H[i][m - 1] * inv % q
                H[i] = [(a - u * b) % q for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % q
    # p_m = (x - H[m][m]) p_{m-1} - sum_i (prod of subdiagonal) H[i][m] p_i
    polys: list[list[int]] = [[1]]
    for m in range(n):
        prev = polys[m]
        cur = [0] + prev  # x * p_{m-1}
        hmm = H[m][m]
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - hmm * c) % q
        cur = [c % q for c in cur]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % q
            f = t * H[i][m] % q
            if f:
                pi = polys[i]
                for j, c in enumerate(pi):
                    cur[j] = (cur[j] - f * c) % q
        polys.append(cur)
    return polys[n]


def _poly_roots(poly: list[int], q: int) -> list[tuple[int, int]]:
    """Roots in F_q with multiplicities, ascending; stops once the
    remaining cofactor is constant."""
    poly = poly[:]
    roots = []
    for lam in range(q):
        if len(poly) <= 1:
            break
        mult = 0
        while len(poly) > 1:
            # synthetic division by (x - lam)
            acc = 0
            quots = [0] * (len(poly) - 1)
            for i in range(len(poly) - 1, 0, -1):
                acc = (acc * lam + poly[i]) % q
                quots[i - 1] = acc
            rem = (acc * lam + poly[0]) % q
            if rem:
                break
            poly = quots
            mult += 1
        if mult:
            roots.append((lam, mult))
    return roots


def _matvec(M: list[list[int]], v: list[int], q: int) -> list[int]:
    return [sum(Mr[c] * v[c] for c in range(len(v)) if v[c]) % q for Mr in M]


class _Subspace:
    """An invariant subspace of F_q^k, basis rows kept in RREF."""

    __slots__ = ("rows", "pivots")

    def __init__(self, rows, pivots):
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.rows)


def _restrict(M: list[list[int]], sub: _Subspace, q: int) -> list[list[int]]:
    """Matrix of M on the invariant subspace, columns = images of basis rows."""
    d = sub.dim
    X = [[0] * d for _ in range(d)]
    for j in range(d):
        w = _matvec(M, sub.rows[j], q)
        coords = [w[p] for p in sub.pivots]
        # consistency: w must lie in the subspace
        k = len(w)
        recon = [0] * k
        for i, x in enumerate(coords):
            if x:
                row = sub.rows[i]
                for c in range(k):
                    recon[c] = (recon[c] + x * row[c]) % q
        if recon != w:
            raise EngineDefect("class-sum matrix does not preserve its eigenspace")
        for i in range(d):
            X[i][j] = coords[i]
    return X


def _split_common_eigenspaces(mats, q: int, k: int) -> list[list[int]]:
    """One-dimensional common eigenspaces of the commuting matrices.

    Refines with each matrix in turn, taking the next one from the
    iterable ``mats`` only while some subspace has dimension above one."""
    subspaces = [_Subspace([[1 if c == r else 0 for c in range(k)] for r in range(k)], list(range(k)))]
    for M in mats:
        nxt: list[_Subspace] = []
        for sub in subspaces:
            if sub.dim == 1:
                nxt.append(sub)
                continue
            X = _restrict(M, sub, q)
            roots = _poly_roots(_charpoly_hessenberg(X, q), q)
            total_dim = 0
            for lam, _mult in roots:
                shifted = [
                    [(X[i][j] - (lam if i == j else 0)) % q for j in range(sub.dim)]
                    for i in range(sub.dim)
                ]
                vecs = []
                for coeffs in _kernel_basis(shifted, q):
                    vec = [0] * k
                    for i, x in enumerate(coeffs):
                        if x:
                            row = sub.rows[i]
                            for c in range(k):
                                vec[c] = (vec[c] + x * row[c]) % q
                    vecs.append(vec)
                rows, pivots = _rref(vecs, q)
                nxt.append(_Subspace(rows, pivots))
                total_dim += len(rows)
            if total_dim != sub.dim:
                raise EngineDefect("eigenspace dimensions do not add up")
        subspaces = nxt
        if all(s.dim == 1 for s in subspaces):
            return [s.rows[0] for s in subspaces]
    raise EngineDefect("common eigenspaces failed to split to dimension one")


# ----------------------------------------------------------------------
# The table.

class CharacterTable:
    """Exact character table: rows are irreducible characters (row 0 is the
    principal character), columns are conjugacy classes in canonical order.
    It refers to no group object: the building group's stabilizer chain and
    element -> class map answer ``x in T`` and ``T.class_index(x)``."""

    def __init__(self, G: PermGroup, classes, values, degrees, inverse_classes):
        self.classes: tuple[ConjugacyClass, ...] = tuple(classes)
        self.values: tuple[tuple[Cyclotomic, ...], ...] = tuple(tuple(r) for r in values)
        self.degrees: tuple[int, ...] = tuple(degrees)
        self.inverse_classes: tuple[int, ...] = tuple(inverse_classes)
        self.degree = G.degree
        self.order = sum(c.size for c in self.classes)
        self._chain = G.chain
        self._class_of = G._class_of
        # Data other layers derive from the table alone (signature columns,
        # block partitions), keyed by tuples starting with what is stored.
        self._cache: dict = {}

    @property
    def k(self) -> int:
        return len(self.classes)

    def __contains__(self, x: Perm) -> bool:
        return x.degree == self.degree and self._chain.contains(x.images)

    def class_index(self, x: Perm) -> int:
        if x not in self:
            raise InvalidArgument("element does not belong to the group")
        return self._class_of[x.images]

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "group_order": self.order,
            "classes": [
                {
                    "representative": c.representative.cycle_string(),
                    "size": c.size,
                    "order": c.element_order,
                }
                for c in self.classes
            ],
            "degrees": list(self.degrees),
            "values": [[v.to_string() for v in row] for row in self.values],
        }


# Built tables by (degree, order), held weakly: a table lives as long as
# some group object that caches it.  The lock makes lookup and registration
# one step, so threads asking for one subgroup build its table once.
_shared_tables: dict[tuple[int, int], weakref.WeakSet] = {}
_shared_lock = threading.Lock()


def character_table(G: PermGroup) -> CharacterTable:
    """The exact character table of G.

    The table is shared by every group object that is the same subgroup of
    Sym(n) as G: equal degree, equal order and containment mean equal
    element sets.  It is cached on G and held weakly by a module-level map,
    so it lives as long as some group object that uses it.  Every subgroup
    that a catalog entry derives is cached on the entry's group, so sharing
    spans one entry: ``pickylab batch full`` builds 121 tables for 113
    distinct subgroups, with the cyclic collector on or off."""
    if "chartab" in G._cache:
        return G._cache["chartab"]
    check_order_bound(G, TABLE_BOUND, "table")
    with _shared_lock:
        same_size = _shared_tables.setdefault((G.degree, G.order), weakref.WeakSet())
        table = find_same_subgroup(G, same_size)
        if table is None:
            table = _table_from_scratch(G)
            same_size.add(table)
    G._cache["chartab"] = table
    return table


def _table_from_scratch(G: PermGroup) -> CharacterTable:
    """Build and verify G's table, bypassing every cache of tables."""
    table = _build_table(G)
    _verify_table(table)
    return table


def _build_table(G: PermGroup) -> CharacterTable:
    """G's table before verification: Sym(n) on its n points from the
    border-strip rule, every other group by Dixon's method."""
    if natural_kind(G) == SYMMETRIC:
        return _symmetric_table(G)
    return _dixon_table(G)


def _symmetric_table(G: PermGroup) -> CharacterTable:
    """Sym(n)'s table from ``symfast``: Irr(Sym(n)) is indexed by the
    partitions lam of n, each value is the border-strip value of lam at the
    class's cycle type and each degree the hook-length degree of lam.
    Every class holds the inverses of its members, which have its cycle
    type.  ``_dixon_table`` is the test oracle of this path."""
    classes = conjugacy_classes(G)
    types = [c.representative.cycle_type(include_fixed=True) for c in classes]
    lams = partitions(G.degree)
    rows = [[Cyclotomic.from_rational(symfast.mn_value(lam, mu)) for mu in types] for lam in lams]
    degrees = [symfast.degree(lam) for lam in lams]
    return _ordered_table(G, classes, degrees, rows, range(len(classes)))


def _dixon_table(G: PermGroup) -> CharacterTable:
    """G's table by Dixon's method (see the module docstring): the path of
    every group but Sym(n), and the test oracle of ``_symmetric_table``."""
    classes = conjugacy_classes(G)
    k = len(classes)
    order = G.order
    class_of = _ClassMemo(G._class_of)
    reps = [c.representative for c in classes]
    sizes = [c.size for c in classes]
    orders = [c.element_order for c in classes]
    e = exponent(G)

    # Power maps: the class of each power of each class representative.
    full_pow: list[list[int]] = []
    for j, rep in enumerate(reps):
        m = orders[j]
        row = []
        x = Perm.identity(G.degree)
        for _u in range(m):
            row.append(class_of[x.images])
            x = x * rep
        full_pow.append(row)
    inverse_classes = [class_of[rep.inverse().images] for rep in reps]

    if k == 1:
        values = [[Cyclotomic.from_rational(1)]]
        return CharacterTable(G, classes, values, [1], inverse_classes)

    q = _field_prime(e, order)

    # The identity class gives the identity matrix; the others go smallest first.
    by_size = sorted(range(1, k), key=lambda i: (sizes[i], i))
    eigvecs = _split_common_eigenspaces((_class_matrix(G, classes, i, q, class_of) for i in by_size), q, k)

    # Normalise so the identity-class coordinate is 1 (omega at identity).
    id_class = 0  # classes are sorted by element order, identity first
    if orders[id_class] != 1:
        raise EngineDefect("the identity class is not first")
    omegas = []
    for v in eigvecs:
        if v[id_class] == 0:
            raise EngineDefect("central character vanishes at the identity class")
        inv = pow(v[id_class], q - 2, q)
        omegas.append([x * inv % q for x in v])

    # Degrees: chi(1)^2 = |G| / sum_j omega_j * omega_{j^-1} / |C_j|.
    sqrt_table = {}
    for s in range(1, (q - 1) // 2 + 1):
        sqrt_table[s * s % q] = s
    size_inv = [pow(s % q, q - 2, q) for s in sizes]
    degrees = []
    value_residues = []
    for w in omegas:
        s = sum(w[j] * w[inverse_classes[j]] * size_inv[j] for j in range(k)) % q
        if s == 0:
            raise EngineDefect("degree denominator vanished mod q")
        d2 = order * pow(s, q - 2, q) % q
        d = sqrt_table.get(d2)
        if d is None:
            raise EngineDefect("degree square has no root mod q")
        degrees.append(d)
        value_residues.append([d * w[j] % q * size_inv[j] % q for j in range(k)])

    if sum(d * d for d in degrees) != order:
        raise EngineDefect("degree squares do not sum to the group order")

    # Exact lift through the discrete Fourier relation.
    z_e = _element_of_order(e, q)
    rows_exact: list[list[Cyclotomic]] = []
    for d, chi in zip(degrees, value_residues):
        row = []
        for j in range(k):
            m = orders[j]
            if m == 1:
                row.append(Cyclotomic.from_rational(chi[j]))
                continue
            zm = pow(z_e, e // m, q)
            zmi = pow(zm, q - 2, q)
            minv = pow(m, q - 2, q)
            coeffs: dict[int, Fraction] = {}
            total = 0
            for t in range(m):
                c = sum(chi[full_pow[j][u]] * pow(zmi, u * t, q) for u in range(m)) * minv % q
                if c:
                    if c > d:
                        raise EngineDefect("eigenvalue multiplicity exceeds the degree")
                    coeffs[t] = Fraction(c)
                    total += c
            if total != d:
                raise EngineDefect("eigenvalue multiplicities do not sum to the degree")
            row.append(Cyclotomic(m, coeffs))
        rows_exact.append(row)

    return _ordered_table(G, classes, degrees, rows_exact, inverse_classes)


def _ordered_table(G: PermGroup, classes, degrees, rows, inverse_classes) -> CharacterTable:
    """The table with its rows in the deterministic order: principal
    character first (all values 1), the rest sorted by degree, then by the
    canonical value strings."""
    one = Cyclotomic.from_rational(1)
    decorated = []
    for d, row in zip(degrees, rows):
        is_principal = d == 1 and all(v == one for v in row)
        decorated.append((not is_principal, d, tuple(v.to_string() for v in row), d, row))
    decorated.sort(key=lambda t: (t[0], t[1], t[2]))
    if decorated[0][0]:
        raise EngineDefect("no principal character found")
    degrees_sorted = [t[3] for t in decorated]
    values_sorted = [t[4] for t in decorated]
    return CharacterTable(G, classes, values_sorted, degrees_sorted, inverse_classes)


class _ClassMemo(dict):
    """Element -> class index, read from a group's class map on the first
    lookup of each element.  One lives for one table build, so the cycle
    type (and, in Alt(n), the alignment parity) of an element is computed
    once however many class matrices meet it; it holds at most |G|
    entries and is freed with the build."""

    __slots__ = ("class_of",)

    def __init__(self, class_of):
        super().__init__()
        self.class_of = class_of

    def __missing__(self, t: tuple[int, ...]) -> int:
        idx = self[t] = self.class_of[t]
        return idx


def _class_matrix(G: PermGroup, classes, i: int, q: int, class_of) -> list[list[int]]:
    """M[j][l] = #{(x, y) in C_i x C_j : xy = rep_l} mod q, at k * |C_i| compositions:
    the inverses x^-1 of C_i's members are the conjugation orbit of rep_i^-1.
    ``class_of`` maps each element of G to its class index."""
    maps = [_conjugator(g.images) for g in G.generators]
    inverses = _orbit(maps, classes[i].representative.inverse().images)
    M = [[0] * len(classes) for _ in classes]
    for l, c in enumerate(classes):
        rt = c.representative.images
        for x_inv in inverses:
            M[class_of[_mul(x_inv, rt)]][l] += 1
    return [[v % q for v in row] for row in M]


def _field_prime(e: int, order: int) -> int:
    """Smallest prime q = 1 mod e with q > 2*sqrt(|G|)."""
    q = e + 1
    while True:
        if q * q > 4 * order and is_prime(q):
            return q
        q += e


def _element_of_order(e: int, q: int) -> int:
    """Deterministic element of order e in F_q* (e divides q-1)."""
    fac = prime_factors(q - 1)
    for r in range(2, q):
        if all(pow(r, (q - 1) // f, q) != 1 for f in fac):
            return pow(r, (q - 1) // e, q)
    raise EngineDefect("no primitive root found")  # pragma: no cover


def _verify_table(T: CharacterTable):
    """Exact orthogonality, degree, and conjugation checks."""
    k = T.k
    order = T.order
    sizes = [c.size for c in T.classes]
    vals = T.values
    inv = T.inverse_classes
    if sum(d * d for d in T.degrees) != order:
        raise EngineDefect("degree squares do not sum to |G|")
    for i in range(k):
        if vals[i][0] != T.degrees[i]:
            raise EngineDefect("identity-class value disagrees with the degree")
    # chi(g^-1) = conj(chi(g)), entrywise.
    for row in vals:
        for j in range(k):
            if row[inv[j]] != row[j].conjugate():
                raise EngineDefect("inverse-class value is not the complex conjugate")
    # Row orthogonality: sum_j |C_j| chi_i(g_j) chi_l(g_j^-1) = delta_il |G|.
    for i in range(k):
        for l in range(i, k):
            s = Cyclotomic.from_rational(0)
            for j in range(k):
                s = s + vals[i][j] * vals[l][inv[j]] * sizes[j]
            expected = order if i == l else 0
            if s != expected:
                raise EngineDefect(f"row orthogonality fails at rows {i}, {l}")
    # Column orthogonality: sum_i chi_i(g_j) chi_i(g_m^-1) = delta_jm |C_G(g_j)|.
    for j in range(k):
        for m in range(j, k):
            s = Cyclotomic.from_rational(0)
            for i in range(k):
                s = s + vals[i][j] * vals[i][inv[m]]
            expected = order // sizes[j] if j == m else 0
            if s != expected:
                raise EngineDefect(f"column orthogonality fails at classes {j}, {m}")


# ----------------------------------------------------------------------
# Character-set extractors: row indices of the table.

def irr_pprime(T: CharacterTable, p: int) -> list[int]:
    """Rows of degree coprime to p."""
    return [i for i, d in enumerate(T.degrees) if d % p]


def irr_nonvanishing_on(
    T: CharacterTable, S: PermGroup, nonidentity_only: bool = False
) -> list[int]:
    """Rows not vanishing at some element of the subgroup S.

    With the identity included (the literal reading) this is all of Irr(G);
    ``nonidentity_only`` quantifies over S minus the identity instead.
    """
    if S.degree != T.degree or not all(s in T for s in S.generators):
        raise InvalidArgument("S is not a subgroup of the table's group")
    check_order_bound(S, ENUM_BOUND, "enumeration")
    class_idxs = {T._class_of[t] for t in S.chain.iter_elements()}
    if nonidentity_only:  # no other element lies in the identity's class
        class_idxs.discard(T._class_of[_identity(S.degree)])
    return [i for i in range(T.k) if any(not T.values[i][j].is_zero() for j in class_idxs)]


def cd(T: CharacterTable) -> tuple[int, ...]:
    """Set of irreducible character degrees, ascending."""
    return tuple(sorted(set(T.degrees)))


def cd_p(T: CharacterTable, p: int) -> tuple[int, ...]:
    """Set of p-parts of the irreducible character degrees, ascending."""
    return tuple(sorted({p_part(d, p) for d in T.degrees}))
