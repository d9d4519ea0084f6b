"""Cochain spaces, the coboundary family delta_r^n, and cohomology groups.

Cochains are skew multilinear maps into a representation carrier, stored by
coordinates on canonical tuples: non-decreasing basis-index tuples, where a
repeated index is admitted only when its degree a has eps(a,a) = -1 (on all
other repeats a skew map vanishes identically).

The coboundary follows the convention in which the omitted-argument sign in
front of f([x_s,x_t], ...) carries eps(x_{s+1}+...+x_{t-1}, x_t); with this
convention delta_r^(n) o delta_r^(n-1) = 0 holds exactly on the subspace of
twist-compatible cochains {f : f o alpha^(x)n = beta o f}, for every r, and
the arity-1 and arity-2 instances reduce to the familiar operator forms.

``delta_matrix``, ``cochain_basis`` and ``cohomology_group`` read delta and
the compatible bases from one cochain complex per (algebra, module), which
assembles each as a sparse matrix, term by term on basis tuples, once.
If alpha keeps degrees and the bracket is graded, delta_gamma^n = D^(n+1)
delta_0^n (D^n)^-1 with D^n scaling the tuple x by eps(gamma, |x|), so Z^n
and B^n, solved at the first degree gamma_0 asked for, move to others by D.
The compatible, cocycle and coboundary bases, the dim H representatives and
every cochain read below are sparse {coordinate: scalar} vectors.
``_coboundary`` and ``CochainSpace.evaluate`` compute the same values
through the multilinear extension without the complex: the independent path
of ``reverify``, ``first_order_class`` and the tests.  They accumulate sparse
{carrier index: scalar} values, which ``evaluate`` and ``evaluate_basis``
return; ``coboundary_of_coords`` is the coboundary's dense face.

``cohomology_group`` exposes two kernel modes.  In "compatible" mode (the
default) cocycles are computed inside the compatible subspace, which is the
setting where the square-zero theorem is valid.  In "free" mode the kernel is
taken on the full skew cochain space; coboundaries always come from the
compatible subspace, so the inclusion B <= Z holds in both modes.
"""
from __future__ import annotations

from itertools import product
from math import prod

from . import linalg
from .algebra_core import AlgebraStructureError, CheckResult, ColorHomAlgebra
from .linalg import _add_scaled, _product, _transpose
from .representations import Representation, _rho_sum
from .scalars_grading import CycloScalar, GroupElement, GroupMismatchError, _muladd, sort_with_sign


class CochainError(AlgebraStructureError):
    pass


def canonical_tuples(A: ColorHomAlgebra, n: int):
    """Non-decreasing index tuples; repeats only at eps(a,a) = -1 degrees."""
    repeats = [A.eps.sign_is_minus_one(A.degree(i), A.degree(i)) for i in range(A.dim)]
    tuples = [()]
    for _ in range(n):  # extending in lexicographic order keeps that order
        tuples = [tup + (i,) for tup in tuples for i in range(tup[-1] if tup else 0, A.dim)
                  if not tup or tup[-1] != i or repeats[i]]
    return tuples


class CochainSpace:
    __slots__ = ("algebra", "module", "n", "gamma", "tuples", "compat_basis",
                 "positions")

    def __init__(self, algebra: ColorHomAlgebra, module: Representation, n: int,
                 gamma: GroupElement, tuples: list, compat_basis: list):
        self.algebra, self.module, self.n, self.gamma = algebra, module, n, gamma
        self.tuples = tuples
        self.compat_basis = compat_basis  # sparse vectors in free canonical coordinates
        self.positions = {tup: t for t, tup in enumerate(tuples)}

    @property
    def free_dim(self) -> int:
        return len(self.tuples) * self.module.dim

    @property
    def compat_dim(self) -> int:
        return len(self.compat_basis)

    def evaluate_basis(self, coords, indices):
        """Value {carrier index: nonzero scalar} of the sparse coords on a tuple
        of basis indices, via the sorting sign; empty off the canonical tuples."""
        A, mdim = self.algebra, self.module.dim
        sorted_tup, sign = sort_with_sign(indices, A.basis.degrees, A.eps)
        if sorted_tup not in self.positions:  # a repeat that every skew map kills
            return {}
        base = self.positions[sorted_tup] * mdim
        return {k: sign * c for k in range(mdim) if (c := coords.get(base + k)) is not None}

    def evaluate(self, coords, vectors):
        """Multilinear extension to sparse coordinate-vector arguments,
        summed over the products of their supports."""
        out = {}
        for picks in product(*(vec.items() for vec in vectors)):
            coeff = None
            for _, c in picks:
                coeff = c if coeff is None else coeff * c
            _add_scaled(out, coeff, self.evaluate_basis(coords, tuple(i for i, _ in picks)))
        return out


class Cochain:
    __slots__ = ("space", "coords")

    def __init__(self, space: CochainSpace, coords: dict):
        self.space = space
        self.coords = coords  # sparse free canonical coordinates

    def is_zero(self) -> bool:
        return not self.coords


# -- sparse operators assembled from basis terms ------------------------------
# (``linalg`` sparse matrices; columns are free canonical coordinates)

class _Complex:
    """The parts of the cochain complex C^*(A, R) that no call changes.

    Per arity n: the canonical tuples with their positions, and the
    compatible basis {f : f o alpha^(x)n = beta o f} as sparse vectors with
    its transpose; the compatibility equations involve alpha and beta only,
    so the basis is the same for every degree gamma and power r.  When both
    are diagonal (``weights``, checked at construction) the basis is the
    unit vectors whose weights match, the rref kernel of those equations;
    otherwise it is solved from ``_compat_rows``.  Per (n, gamma, r): the
    sparse rows of delta_r^n and their product with the compatible basis;
    per (n, r, mode) and (n, r), the rref bases of Z^n and of B^n at their
    anchor gamma_0, moved to other degrees by D if alpha keeps degrees and the
    bracket is graded (``graded``, checked at construction), else solved again.

    The complex takes the carrier dimension and R's sparse rho and beta when
    it is built and keeps no reference to R, so R (which keeps the complex)
    frees it by reference counting alone.  Entries are filled on first use, so A
    and R must not be mutated after construction
    (``ColorHomAlgebra.alpha_sparse`` assumes the same).  An entry is stored
    only once computed: a negative power of a singular twist raises on
    every call.  Callers receive fresh containers, never the stored ones.
    ``_coboundary`` and ``CochainSpace.evaluate`` never read the complex.
    """

    def __init__(self, A: ColorHomAlgebra, R: Representation):
        self.algebra, self.mdim = A, R.dim
        self.rho_basis, self.beta = R.action
        alpha_cols = _transpose(A.alpha_sparse(1))
        self.alpha_cols = [list(alpha_cols.get(i, {}).items()) for i in range(A.dim)]
        # eps(d_i, d_j) = zeta_m^k[i][j] on the basis degrees
        degrees = A.basis.degrees
        self.eps_exponents = [[A.eps.exponent(a, b) for b in degrees] for a in degrees]
        self._arity = {}         # n -> (canonical tuples, their positions)
        self._located = {}       # argument index combo -> locate(combo)
        self._compat = {}        # n -> (compatible basis, its transpose)
        self.keeps_degrees = all(A.degree(j) == A.degree(i)
                                 for i in range(A.dim) for j, _ in self.alpha_cols[i])
        self.graded = self.keeps_degrees and all(A.degree(k) == A.degree(i) + A.degree(j)
                                                 for (i, j), row in A.bracket.rows.items()
                                                 for k in row)
        # (a_i, b_k) with alpha e_i = a_i e_i and beta v_k = b_k v_k, a zero
        # entry the weight 0; None unless both are diagonal
        zero, self.weights = CycloScalar.zero(A.m), None
        if all(j == i for i, col in enumerate(self.alpha_cols) for j, _ in col) \
                and all(set(row) <= {k} for k, row in self.beta.items()):
            self.weights = ([col[0][1] if col else zero for col in self.alpha_cols],
                            [self.beta.get(k, {}).get(k, zero) for k in range(self.mdim)])
        self._delta = {}         # (n, gamma, r) -> sparse rows of delta_r^n
        self._restricted = {}    # (n, gamma, r) -> delta_r^n on the compatible basis
        self._cocycles = {}      # (n, r, restrict) -> (gamma_0, rref rows of Z^n at gamma_0)
        self._coboundaries = {}  # (n, r) -> (gamma_0, rref rows of B^n at gamma_0)

    def arity(self, n: int):
        if n not in self._arity:
            tuples = canonical_tuples(self.algebra, n)
            self._arity[n] = (tuples, {tup: t for t, tup in enumerate(tuples)})
        return self._arity[n]

    def free_dim(self, n: int) -> int:
        return len(self.arity(n)[0]) * self.mdim

    def locate(self, combo):
        """(tuple position, sign) with f(combo) = sign * f(tuples[position])
        for every skew map f, or None when they all vanish on combo: the
        rule of ``CochainSpace.evaluate_basis``."""
        if combo not in self._located:
            A = self.algebra
            sorted_tup, sign = sort_with_sign(combo, A.basis.degrees, A.eps)
            pos = self.arity(len(combo))[1].get(sorted_tup)
            self._located[combo] = None if pos is None else (pos, sign)
        return self._located[combo]

    def expand(self, coeffs, supports):
        """Add f(x_1, ..., x_n) for x_i = sum of a e_j over the (j, a) in
        supports[i] into coeffs {tuple position: scalar}, by multilinearity:
        over the products of the supports, each located on a canonical tuple."""
        for picks in product(*supports):
            if (hit := self.locate(tuple(j for j, _ in picks))) is None:
                continue
            pos, coeff = hit
            for _, a in picks:
                coeff = coeff * a
            coeffs[pos] = coeffs[pos] + coeff if pos in coeffs else coeff
        return coeffs

    def compat(self, n: int):
        if n not in self._compat:
            if self.weights is None:
                basis = linalg.sparse_kernel_basis(list(_compat_rows(self, n).values()),
                                                   self.free_dim(n), self.algebra.m)
            else:  # row (t, k) is (prod of a_i over t - b_k) f_(t,k): its kernel by weight
                (a, b), one, basis = self.weights, CycloScalar.one(self.algebra.m), []
                for t, tup in enumerate(self.arity(n)[0]):
                    w = prod((a[i] for i in tup), start=one)
                    basis += [{t * self.mdim + k: one} for k, bk in enumerate(b) if bk == w]
            self._compat[n] = (basis, _transpose(dict(enumerate(basis))))
        return self._compat[n]

    def delta(self, n: int, gamma: GroupElement, r: int):
        key = (n, gamma, r)
        if key not in self._delta:
            self._delta[key] = _delta_rows(self, n, gamma, r)
        return self._delta[key]

    def restricted(self, n: int, gamma: GroupElement, r: int):
        """delta_r^n on the compatible arity-n basis; empty without forming
        delta_r^n (so no twist power) when that basis is empty."""
        key = (n, gamma, r)
        if key not in self._restricted:
            basis_t = self.compat(n)[1]
            self._restricted[key] = (_product(self.delta(n, gamma, r), basis_t)
                                     if basis_t else {})
        return self._restricted[key]

    def cocycles(self, n: int, gamma: GroupElement, r: int, restrict: str):
        """rref basis of Z^n, the kernel of delta_r^n on the free or compatible C^n."""
        def solve(g):
            if restrict == "free":
                return linalg.sparse_kernel_basis(list(self.delta(n, g, r).values()),
                                                  self.free_dim(n), self.algebra.m)
            # the rref kernel of delta on the rref compatible basis: the cocycles
            # its vectors give as sums of basis vectors are again in rref
            basis = self.compat(n)[0]
            combos = linalg.sparse_kernel_basis(list(self.restricted(n, g, r).values()),
                                                len(basis), self.algebra.m)
            return list(_product(dict(enumerate(combos)), dict(enumerate(basis))).values())
        return self._shared(self._cocycles, (n, r, restrict), n, gamma, solve)

    def coboundaries(self, n: int, gamma: GroupElement, r: int):
        """rref basis of B^n, the row space of the transposed ``restricted(n - 1, ...)``."""
        return self._shared(self._coboundaries, (n, r), n, gamma, lambda g: linalg.rref(
            list(_transpose(self.restricted(n - 1, g, r)).values()))[0])

    def _shared(self, store, key, n: int, gamma: GroupElement, solve):
        """solve(gamma): the anchor's rref basis moved by D (supports stay, so rref)."""
        A = self.algebra
        if gamma.group != A.basis.group:  # refused, or empty, as a direct solve gives it
            return solve(gamma)
        if key not in store:
            store[key] = (gamma, solve(gamma))
        gamma0, basis = store[key]
        if gamma == gamma0:
            return [dict(v) for v in basis]
        if not self.graded:
            return solve(gamma)
        eps, m, mdim = A.eps, A.eps.root_order, self.mdim
        shift = [eps.exponent(gamma, d) - eps.exponent(gamma0, d) for d in A.basis.degrees]
        ks = [sum(shift[i] for i in tup) % m for tup in self.arity(n)[0]]
        leads = [ks[min(v) // mdim] for v in basis]  # each vector is 1 there again
        return [{c: x if (e := (ks[c // mdim] - lead) % m) == 0 else eps.roots[e] * x
                 for c, x in v.items()} for v, lead in zip(basis, leads)]


def _complex(A: ColorHomAlgebra, R: Representation) -> _Complex:
    """The cochain complex of (A, R), kept on R under A.  The entry holds A,
    so it is never matched to another algebra, and it goes with R: a module
    used once takes its complex with it."""
    if A not in R._cochain_complexes:
        R._cochain_complexes[A] = _Complex(A, R)
    return R._cochain_complexes[A]


def _compat_rows(cx: _Complex, n: int):
    """Sparse rows of f o alpha^(x)n - beta o f on the arity-n free coordinates.

    Row c * dim(V) + k is carrier component k on the c-th basis n-tuple in
    ``product`` order (for n = 0, the rows of I - beta).  When alpha keeps
    every degree, the block of a reordered tuple is the reorder sign times
    the block of its sorted tuple, and a repeat that every skew map kills
    gives zero rows, so only the canonical tuples are used.
    """
    A, mdim = cx.algebra, cx.mdim
    rows = {}
    if cx.free_dim(n) == 0:
        return rows
    tuples, locate = cx.arity(n)[0], cx.locate
    alpha_cols, beta = cx.alpha_cols, cx.beta
    combos = tuples if cx.keeps_degrees else product(range(A.dim), repeat=n)
    for block, combo in enumerate(combos):
        base = block * mdim
        # f(alpha x_1, ..., alpha x_n): the same carrier component k
        coeffs = cx.expand({}, [alpha_cols[i] for i in combo])
        # - beta f(x_1, ..., x_n)
        hit = locate(combo)
        for k in range(mdim):
            row = {pos * mdim + k: coeff for pos, coeff in coeffs.items() if any(coeff.num)}
            if hit is not None and k in beta:
                pos, sign = hit
                _add_scaled(row, -sign, {pos * mdim + l: b for l, b in beta[k].items()})
            if row:
                rows[base + k] = row
    return rows


def _delta_rows(cx: _Complex, n: int, gamma: GroupElement, r: int):
    """Sparse rows of delta_r^n from the arity-n to the arity-(n+1) free
    coordinates.

    Term by term the same sum as ``_coboundary``.  The twist power
    alpha^(r+n-1) is only formed when the domain is nonzero, so a singular
    twist raises exactly where the per-vector evaluation would.
    """
    A, mdim = cx.algebra, cx.mdim
    rows = {}
    if cx.free_dim(n) == 0:
        return rows
    positions, alpha_cols = cx.arity(n)[1], cx.alpha_cols
    # per e_i, the entries (k, l, value) of rho(alpha^(r+n-1) e_i)
    powers = _transpose(A.alpha_sparse(r + n - 1))
    images = (_rho_sum(cx.rho_basis, powers.get(i, {})) for i in range(A.dim))
    rho_entries = [[(k, l, v) for k, row in sorted(image.items()) for l, v in sorted(row.items())]
                   for image in images]
    if gamma.group != A.basis.group:
        raise GroupMismatchError("degree gamma is not in the grading group")
    # eps is bimultiplicative: the exponent of eps(sum of degrees, d) is a sum
    ex, roots, m = cx.eps_exponents, A.eps.roots, A.eps.root_order
    gx = [A.eps.exponent(gamma, d) for d in A.basis.degrees]
    for t_index, tup in enumerate(cx.arity(n + 1)[0]):
        base = t_index * mdim
        # insertion terms f(alpha x_0, ..., [x_s, x_t], ..., ^x_t, ..., alpha x_n)
        coeffs = {}
        for t in range(1, n + 1):
            for s in range(t):
                sign = roots[sum(ex[tup[u]][tup[t]] for u in range(s + 1, t)) % m]
                factor = sign if t % 2 == 0 else -sign  # (-1)^t
                inserted = [(j, factor * b)  # the factor rides on [x_s, x_t]
                            for j, b in A.bracket.rows.get((tup[s], tup[t]), {}).items()]
                cx.expand(coeffs, [inserted if pos == s else alpha_cols[tup[pos]]
                                   for pos in range(n + 1) if pos != t])
        block = [{pos * mdim + k: coeff for pos, coeff in coeffs.items() if any(coeff.num)}
                 for k in range(mdim)]
        # action terms (-1)^s eps(gamma + x_0 + ... + x_{s-1}, x_s) rho(...) f(...)
        for s in range(n + 1):
            sign = roots[(gx[tup[s]] + sum(ex[tup[u]][tup[s]] for u in range(s))) % m]
            factor = sign if s % 2 == 0 else -sign
            # a canonical tuple less one entry is canonical: no sort, no sign
            pos = positions[tup[:s] + tup[s + 1:]]
            for k, l, v in rho_entries[tup[s]]:
                row, c = block[k], pos * mdim + l
                if any((y := _muladd(v, factor, row.get(c))).num):
                    row[c] = y
                else:
                    del row[c]
        rows.update((base + k, row) for k, row in enumerate(block) if row)
    return rows


def cochain_basis(A: ColorHomAlgebra, R: Representation, n: int,
                  gamma: GroupElement) -> CochainSpace:
    """Free skew tuple space plus the basis of the twist-compatible subspace."""
    if n < 0:
        raise CochainError("cochain arity must be non-negative")
    cx = _complex(A, R)
    return CochainSpace(A, R, n, gamma, list(cx.arity(n)[0]),
                        [dict(v) for v in cx.compat(n)[0]])


def coboundary_of_coords(A: ColorHomAlgebra, R: Representation, space: CochainSpace,
                         coords, r: int):
    """delta_r^n applied to dense or sparse free coordinates; returns dense
    ones and the target space: the dense face of ``_coboundary``."""
    image, target = _coboundary(A, R, space, linalg.sparse([coords]).get(0, {}), r)
    return linalg.dense([image], target.free_dim, A.m)[0], target


def _coboundary(A: ColorHomAlgebra, R: Representation, space: CochainSpace, coords, r: int):
    """delta_r^n of sparse free coordinates as (sparse image, target space).

    Raises when r + n - 1 < 0 and the twist is singular (negative power).
    """
    n, gamma, mdim = space.n, space.gamma, R.dim
    target = CochainSpace(A, R, n + 1, gamma, canonical_tuples(A, n + 1), [])
    # alpha e_i and the columns of rho(alpha^(r+n-1) e_i), once per call
    alpha_img, rho = _transpose(A.alpha_sparse(1)), R.action[0]
    powers = _transpose(A.alpha_sparse(r + n - 1))
    rho_cols = [_transpose(_rho_sum(rho, powers.get(i, {}))) for i in range(A.dim)]
    out = {}
    for t_index, tup in enumerate(target.tuples):
        acc, degs = {}, [A.degree(i) for i in tup]
        # insertion terms f(alpha x_0, ..., [x_s, x_t], ..., ^x_t, ..., alpha x_n)
        for t in range(1, n + 1):
            for s in range(t):
                sign = A.eps(sum(degs[s + 1:t], A.basis.group.zero()), degs[t])
                factor = sign if t % 2 == 0 else -sign  # (-1)^t
                args = [A.bracket.rows.get((tup[s], tup[t]), {}) if pos == s
                        else alpha_img.get(tup[pos], {}) for pos in range(n + 1) if pos != t]
                _add_scaled(acc, factor, space.evaluate(coords, args))
        # action terms (-1)^s eps(gamma + x_0 + ... + x_{s-1}, x_s) rho(...) f(...)
        for s in range(n + 1):
            sign = A.eps(sum(degs[:s], gamma), degs[s])
            factor = sign if s % 2 == 0 else -sign
            cols = rho_cols[tup[s]]
            for l, v in space.evaluate_basis(coords, tup[:s] + tup[s + 1:]).items():
                if l in cols:
                    _add_scaled(acc, factor * v, cols[l])
        out.update((t_index * mdim + k, c) for k, c in acc.items())
    return out, target


def delta_matrix(A: ColorHomAlgebra, R: Representation, n: int, r: int,
                 gamma: GroupElement, domain: str = "free"):
    """Matrix of delta_r^n as columns over the chosen domain basis.

    Returns (columns, space) where each column lives in the free canonical
    coordinates of the arity-(n+1) space.
    """
    if domain not in ("free", "compatible"):
        raise ValueError(f"unknown domain {domain!r}")
    space = cochain_basis(A, R, n, gamma)
    cx = _complex(A, R)
    if domain == "free":
        rows, ncols = cx.delta(n, gamma, r), space.free_dim
    else:
        rows, ncols = cx.restricted(n, gamma, r), space.compat_dim
    columns = _transpose(rows)
    return linalg.dense([columns.get(c, {}) for c in range(ncols)], cx.free_dim(n + 1),
                        A.m), space


class CohomologyResult:
    __slots__ = ("n", "r", "gamma", "restrict", "dim_Z", "dim_B", "dim_H",
                 "cocycle_basis", "coboundary_basis", "_representatives", "space")

    def __init__(self, n: int, r: int, gamma: GroupElement, restrict: str,
                 dim_Z: int, dim_B: int, dim_H: int, cocycle_basis: list,
                 coboundary_basis: list, representatives: list, space: CochainSpace):
        self.n, self.r, self.gamma, self.restrict = n, r, gamma, restrict
        self.dim_Z, self.dim_B, self.dim_H = dim_Z, dim_B, dim_H
        self.cocycle_basis, self.coboundary_basis = cocycle_basis, coboundary_basis
        self.space, self.representatives = space, representatives

    @property
    def representatives(self) -> list:
        """The representatives, stored sparse, as fresh dense vectors; set dense or sparse."""
        return linalg.dense(self._representatives, self.space.free_dim, self.space.algebra.m)

    @representatives.setter
    def representatives(self, vectors):
        self._representatives = [linalg.sparse([v]).get(0, {}) for v in vectors]

    def to_dict(self):
        def cochain_dicts(vectors):
            out = []
            mdim, tuples = self.space.module.dim, self.space.tuples
            names, carrier = self.space.algebra.basis.names, self.space.module.carrier.names
            for v in vectors:
                entry = {}
                for c in sorted(v):
                    t, k = divmod(c, mdim)
                    entry.setdefault(",".join(names[i] for i in tuples[t]), {})[carrier[k]] = \
                        str(v[c])
                out.append(entry)
            return out
        return {
            "n": self.n,
            "r": self.r,
            "degree": list(self.gamma.components),
            "restrict": self.restrict,
            "dim_Z": self.dim_Z,
            "dim_B": self.dim_B,
            "dim_H": self.dim_H,
            "representatives": cochain_dicts(self._representatives),
        }


def cohomology_group(A: ColorHomAlgebra, R: Representation, n: int, r: int,
                     gamma: GroupElement, restrict: str = "compatible") -> CohomologyResult:
    """Z/B at arity n: kernel of delta_r^n over the chosen cochain space,
    modulo the image of delta_r^(n-1) over the compatible subspace."""
    if n < 1:
        raise CochainError("cohomology needs arity >= 1 here")
    if restrict not in ("free", "compatible"):
        raise ValueError(f"unknown restrict mode {restrict!r}")
    cx = _complex(A, R)
    Z, B = cx.cocycles(n, gamma, r, restrict), cx.coboundaries(n, gamma, r)
    # rref bases of equal length span one space exactly when they are equal;
    # otherwise the representatives are the vectors of Z, in order, that one
    # echelon form of B takes, and rank(Z + B) = len(B) + len(reps)
    reps = []
    if len(Z) != len(B):
        quotient = linalg.Echelon(B)
        reps = [v for v in Z if quotient.add(v)]
    if len(B) + len(reps) != len(Z) or len(Z) == len(B) and Z != B:
        raise CochainError(
            "coboundary escaped the cocycle space; the complex is inconsistent here")
    space = cochain_basis(A, R, n, gamma)
    return CohomologyResult(n, r, gamma, restrict, len(Z), len(B), len(Z) - len(B),
                            Z, B, reps, space)


def reverify(A: ColorHomAlgebra, R: Representation, result: CohomologyResult) -> CheckResult:
    """Re-check that each cocycle basis vector and representative has
    coboundary 0 (multilinear path) and each representative is new mod B."""
    failures = [{"kind": kind, "index": i, "reason": "nonzero coboundary"}
                for kind, vectors in (("cocycle", result.cocycle_basis),
                                      ("representative", result._representatives))
                for i, vec in enumerate(vectors)
                if _coboundary(A, R, result.space, vec, result.r)[0]]
    quotient = linalg.Echelon(result.coboundary_basis)
    failures += [{"kind": "representative", "index": i,
                  "reason": "in the span of B and the earlier representatives"}
                 for i, vec in enumerate(result._representatives) if not quotient.add(vec)]
    return CheckResult(not failures, failures)
