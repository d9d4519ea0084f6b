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

``delta_matrix``, ``cochain_basis`` and ``cohomology_group`` assemble delta
and the compatibility equations once per call as sparse matrices, term by
term on basis tuples.  ``coboundary_of_coords`` and ``CochainSpace.evaluate``
compute the same values through the multilinear extension; they are the
independent path that re-checks cocycles and backs the tests.

``cohomology_group`` exposes two kernel modes.  In "compatible" mode (the
default) cocycles are computed inside the compatible subspace, which is the
setting where the square-zero theorem is valid.  In "free" mode the kernel is
taken on the full skew cochain space; coboundaries always come from the
compatible subspace, so the inclusion B <= Z holds in both modes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import linalg
from .algebra_core import AlgebraStructureError, ColorHomAlgebra
from .representations import Representation
from .scalars_grading import CycloScalar, GroupElement, sort_with_sign


class CochainError(AlgebraStructureError):
    pass


def canonical_tuples(A: ColorHomAlgebra, n: int):
    """Non-decreasing index tuples; repeats only at eps(a,a) = -1 degrees."""
    if n == 0:
        return [()]
    out = []
    def extend(prefix, start):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(start, A.dim):
            if prefix and prefix[-1] == i:
                if not A.eps.sign_is_minus_one(A.degree(i), A.degree(i)):
                    continue
            extend(prefix + [i], i)
    extend([], 0)
    return out


@dataclass
class CochainSpace:
    algebra: ColorHomAlgebra
    module: Representation
    n: int
    gamma: GroupElement
    tuples: list
    compat_basis: list  # vectors in free canonical coordinates
    positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.positions = {tup: t for t, tup in enumerate(self.tuples)}

    @property
    def free_dim(self) -> int:
        return len(self.tuples) * self.module.dim

    @property
    def compat_dim(self) -> int:
        return len(self.compat_basis)

    def coord_index(self, tup, k: int) -> int:
        return self.positions[tup] * self.module.dim + k

    def zero_coords(self):
        return [CycloScalar.zero(self.algebra.m)] * self.free_dim

    def evaluate_basis(self, coords, indices):
        """Value on a tuple of basis indices, via the sorting sign."""
        mdim = self.module.dim
        m = self.algebra.m
        if self.n == 0:
            return list(coords)
        sorted_tup, sign = sort_with_sign(indices, self.algebra.basis.degrees,
                                          self.algebra.eps)
        for a, b in zip(sorted_tup, sorted_tup[1:]):
            if a == b and not self.algebra.eps.sign_is_minus_one(
                    self.algebra.degree(a), self.algebra.degree(a)):
                return [CycloScalar.zero(m)] * mdim
        base = self.positions[sorted_tup] * mdim
        return [sign * coords[base + k] for k in range(mdim)]

    def evaluate(self, coords, vectors):
        """Multilinear extension to arbitrary coordinate-vector arguments."""
        m = self.algebra.m
        mdim = self.module.dim
        out = [CycloScalar.zero(m)] * mdim
        for combo in product(*(range(self.algebra.dim) for _ in range(self.n))):
            coeff = CycloScalar.one(m)
            vanished = False
            for vec, i in zip(vectors, combo):
                c = vec[i]
                if c.is_zero():
                    vanished = True
                    break
                coeff = coeff * c
            if vanished:
                continue
            val = self.evaluate_basis(coords, combo)
            out = [o + coeff * v for o, v in zip(out, val)]
        return out


@dataclass
class Cochain:
    space: CochainSpace
    coords: list  # free canonical coordinates

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)


# -- sparse operators assembled from basis terms ------------------------------
#
# A sparse matrix is a dict of rows {row: {column: nonzero scalar}}; rows that
# vanish are absent.  Columns are free canonical coordinates of the domain
# space (tuple position * module dim + carrier index).


def _support(vec):
    return [(i, c) for i, c in enumerate(vec) if not c.is_zero()]


def _add_entry(rows, r, c, value):
    row = rows.setdefault(r, {})
    row[c] = row[c] + value if c in row else value


def _pruned(rows):
    out = {}
    for r, row in rows.items():
        kept = {c: v for c, v in row.items() if not v.is_zero()}
        if kept:
            out[r] = kept
    return out


def _dense_rows(rows, ncols: int, m: int):
    """The present rows in row order, as dense lists."""
    zero = CycloScalar.zero(m)
    out = []
    for r in sorted(rows):
        dense = [zero] * ncols
        for c, v in rows[r].items():
            dense[c] = v
        out.append(dense)
    return out


def _dot(row, vec, m: int):
    """One sparse row times a dense coordinate vector."""
    acc = CycloScalar.zero(m)
    for c, v in row.items():
        if not vec[c].is_zero():
            acc = acc + v * vec[c]
    return acc


def _apply(rows, nrows: int, vec, m: int):
    """The matrix times a dense coordinate vector, as a dense vector."""
    out = [CycloScalar.zero(m)] * nrows
    for r, row in rows.items():
        out[r] = _dot(row, vec, m)
    return out


def _locator(space: CochainSpace):
    """Memoised map from an argument index combo to (tuple position, sign),
    or None when every skew map vanishes on it: the rule of
    ``evaluate_basis``, f(combo) = sign * f(tuples[position])."""
    A = space.algebra
    memo = {}

    def locate(combo):
        if combo in memo:
            return memo[combo]
        sorted_tup, sign = sort_with_sign(combo, A.basis.degrees, A.eps)
        vanishes = any(a == b and not A.eps.sign_is_minus_one(A.degree(a), A.degree(a))
                       for a, b in zip(sorted_tup, sorted_tup[1:]))
        hit = None if vanishes else (space.positions[sorted_tup], sign)
        memo[combo] = hit
        return hit
    return locate


def _compat_rows(space: CochainSpace):
    """Sparse rows of f o alpha^(x)n - beta o f.

    Row c * dim(V) + k is carrier component k on the c-th basis n-tuple in
    ``product`` order (for n = 0, the rows of I - beta).
    """
    A, R, n = space.algebra, space.module, space.n
    mdim = R.dim
    if n == 0:
        one, zero = CycloScalar.one(A.m), CycloScalar.zero(A.m)
        return _pruned({r: {c: (one if r == c else zero) - R.beta[r][c]
                            for c in range(mdim)} for r in range(mdim)})
    rows = {}
    if space.free_dim == 0:
        return rows
    locate = _locator(space)
    alpha_cols = [_support(A.apply_alpha(A.basis_vector(i))) for i in range(A.dim)]
    beta = [(k, l, b) for k, brow in enumerate(R.beta) for l, b in _support(brow)]
    for block, combo in enumerate(product(range(A.dim), repeat=n)):
        base = block * mdim
        # f(alpha x_1, ..., alpha x_n): the same carrier component k
        coeffs = {}
        for picks in product(*(alpha_cols[i] for i in combo)):
            hit = locate(tuple(j for j, _ in picks))
            if hit is None:
                continue
            pos, coeff = hit
            for _, a in picks:
                coeff = coeff * a
            coeffs[pos] = coeffs[pos] + coeff if pos in coeffs else coeff
        for pos, coeff in coeffs.items():
            for k in range(mdim):
                _add_entry(rows, base + k, pos * mdim + k, coeff)
        # - beta f(x_1, ..., x_n)
        hit = locate(combo)
        if hit is not None:
            pos, sign = hit
            for k, l, b in beta:
                _add_entry(rows, base + k, pos * mdim + l, -(b * sign))
    return _pruned(rows)


def _delta_rows(space: CochainSpace, r: int):
    """Sparse rows of delta_r^n on the free coordinates of ``space``, and the
    free dimension of the arity-(n+1) target space.

    Term by term the same sum as ``coboundary_of_coords``.  The twist power
    alpha^(r+n-1) is only formed when the domain is nonzero, so a singular
    twist raises exactly where the per-vector evaluation would.
    """
    A, R, n, gamma = space.algebra, space.module, space.n, space.gamma
    mdim = R.dim
    target_tuples = canonical_tuples(A, n + 1)
    rows = {}
    if space.free_dim == 0:
        return rows, len(target_tuples) * mdim
    locate = _locator(space)
    alpha_cols = [_support(A.apply_alpha(A.basis_vector(i))) for i in range(A.dim)]
    rho_power = r + n - 1
    rho_entries = []
    for i in range(A.dim):
        P = R.rho_of(A.apply_alpha(A.basis_vector(i), rho_power))
        rho_entries.append([(k, l, v) for k, prow in enumerate(P)
                            for l, v in _support(prow)])
    for t_index, tup in enumerate(target_tuples):
        base = t_index * mdim
        degs = [A.degree(i) for i in tup]
        # insertion terms f(alpha x_0, ..., [x_s, x_t], ..., ^x_t, ..., alpha x_n)
        coeffs = {}
        for t in range(1, n + 1):
            for s in range(t):
                between = A.basis.group.zero()
                for u in range(s + 1, t):
                    between = between + degs[u]
                sign = A.eps(between, degs[t])
                factor = sign if t % 2 == 0 else -sign  # (-1)^t
                supports = [_support(A.bracket.of_basis(tup[s], tup[t])) if pos == s
                            else alpha_cols[tup[pos]] for pos in range(n + 1) if pos != t]
                for picks in product(*supports):
                    hit = locate(tuple(j for j, _ in picks))
                    if hit is None:
                        continue
                    pos, coeff = hit
                    coeff = factor * coeff
                    for _, a in picks:
                        coeff = coeff * a
                    coeffs[pos] = coeffs[pos] + coeff if pos in coeffs else coeff
        for pos, coeff in coeffs.items():
            for k in range(mdim):
                _add_entry(rows, base + k, pos * mdim + k, coeff)
        # action terms (-1)^s eps(gamma + x_0 + ... + x_{s-1}, x_s) rho(...) f(...)
        for s in range(n + 1):
            prefix = gamma
            for u in range(s):
                prefix = prefix + degs[u]
            sign = A.eps(prefix, degs[s])
            factor = sign if s % 2 == 0 else -sign
            hit = locate(tup[:s] + tup[s + 1:])
            if hit is None:
                continue
            pos, coeff = hit
            coeff = factor * coeff
            for k, l, v in rho_entries[tup[s]]:
                _add_entry(rows, base + k, pos * mdim + l, coeff * v)
    return _pruned(rows), len(target_tuples) * mdim


def _delta_images(space: CochainSpace, r: int, vectors):
    """delta_r^n of each vector, in the free coordinates of the target space."""
    if not vectors:
        return []
    rows, nrows = _delta_rows(space, r)
    return [_apply(rows, nrows, v, space.algebra.m) for v in vectors]


def cochain_basis(A: ColorHomAlgebra, R: Representation, n: int,
                  gamma: GroupElement) -> CochainSpace:
    """Free skew tuple space plus the basis of the twist-compatible subspace."""
    if n < 0:
        raise CochainError("cochain arity must be non-negative")
    space = CochainSpace(A, R, n, gamma, canonical_tuples(A, n), [])
    rows = _dense_rows(_compat_rows(space), space.free_dim, A.m)
    space.compat_basis = linalg.kernel_basis(rows, space.free_dim, A.m)
    return space


def coboundary_of_coords(A: ColorHomAlgebra, R: Representation, space: CochainSpace,
                         coords, r: int):
    """delta_r^n applied to free coordinates; returns target-space coordinates.

    Raises when r + n - 1 < 0 and the twist is singular (negative power).
    """
    n = space.n
    gamma = space.gamma
    m = A.m
    mdim = R.dim
    rho_power = r + n - 1
    target_tuples = canonical_tuples(A, n + 1)
    target = CochainSpace(A, R, n + 1, gamma, target_tuples, [])
    out = target.zero_coords()
    # alpha e_i and rho(alpha^(r+n-1) e_i), once per call
    alpha_img = linalg.transpose(A.alpha)
    rho_img = [R.rho_of(col) for col in linalg.transpose(A.alpha_power(rho_power))]
    for t_index, tup in enumerate(target_tuples):
        acc = [CycloScalar.zero(m)] * mdim
        degs = [A.degree(i) for i in tup]
        # insertion terms f(alpha x_0, ..., [x_s, x_t], ..., ^x_t, ..., alpha x_n)
        for t in range(1, n + 1):
            for s in range(t):
                between = A.basis.group.zero()
                for u in range(s + 1, t):
                    between = between + degs[u]
                sign = A.eps(between, degs[t])
                factor = sign if t % 2 == 0 else -sign  # (-1)^t
                args = []
                for pos in range(n + 1):
                    if pos == t:
                        continue
                    if pos == s:
                        args.append(A.bracket.of_basis(tup[s], tup[t]))
                    else:
                        args.append(alpha_img[tup[pos]])
                val = space.evaluate(coords, args)
                acc = [a + factor * v for a, v in zip(acc, val)]
        # action terms (-1)^s eps(gamma + x_0 + ... + x_{s-1}, x_s) rho(...) f(...)
        for s in range(n + 1):
            prefix = gamma
            for u in range(s):
                prefix = prefix + degs[u]
            sign = A.eps(prefix, degs[s])
            factor = sign if s % 2 == 0 else -sign
            rest = [A.basis_vector(tup[pos]) for pos in range(n + 1) if pos != s]
            fval = space.evaluate(coords, rest)
            acted = linalg.mat_vec(rho_img[tup[s]], fval)
            acc = [a + factor * v for a, v in zip(acc, acted)]
        base = t_index * mdim
        for k in range(mdim):
            out[base + k] = acc[k]
    return out, target


def coboundary(A: ColorHomAlgebra, R: Representation, f: Cochain, r: int) -> Cochain:
    coords, target = coboundary_of_coords(A, R, f.space, f.coords, r)
    return Cochain(target, coords)


def delta_matrix(A: ColorHomAlgebra, R: Representation, n: int, r: int,
                 gamma: GroupElement, domain: str = "free"):
    """Matrix of delta_r^n as columns over the chosen domain basis.

    Returns (columns, space) where each column lives in the free canonical
    coordinates of the arity-(n+1) space.
    """
    if domain not in ("free", "compatible"):
        raise ValueError(f"unknown domain {domain!r}")
    space = cochain_basis(A, R, n, gamma)
    if domain == "compatible":
        return _delta_images(space, r, space.compat_basis), space
    rows, nrows = _delta_rows(space, r)
    zero = CycloScalar.zero(A.m)
    columns = [[zero] * nrows for _ in range(space.free_dim)]
    for ri, row in rows.items():
        for c, v in row.items():
            columns[c][ri] = v
    return columns, space


@dataclass
class CohomologyResult:
    n: int
    r: int
    gamma: GroupElement
    restrict: str
    dim_Z: int
    dim_B: int
    dim_H: int
    cocycle_basis: list
    coboundary_basis: list
    representatives: list
    space: CochainSpace

    def to_dict(self):
        def cochain_dicts(vectors):
            out = []
            mdim = self.space.module.dim
            names = self.space.algebra.basis.names
            for v in vectors:
                entry = {}
                for t, tup in enumerate(self.space.tuples):
                    vals = v[t * mdim:(t + 1) * mdim]
                    if any(not c.is_zero() for c in vals):
                        key = ",".join(names[i] for i in tup)
                        entry[key] = {self.space.module.carrier.names[k]: str(c)
                                      for k, c in enumerate(vals) if not c.is_zero()}
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
            "representatives": cochain_dicts(self.representatives),
        }


def cohomology_group(A: ColorHomAlgebra, R: Representation, n: int, r: int,
                     gamma: GroupElement, restrict: str = "compatible") -> CohomologyResult:
    """Z/B at arity n: kernel of delta_r^n over the chosen cochain space,
    modulo the image of delta_r^(n-1) over the compatible subspace."""
    if n < 1:
        raise CochainError("cohomology needs arity >= 1 here")
    if restrict not in ("free", "compatible"):
        raise ValueError(f"unknown restrict mode {restrict!r}")
    space = cochain_basis(A, R, n, gamma)
    rows, _ = _delta_rows(space, r)
    if restrict == "free":
        Z = linalg.kernel_basis(_dense_rows(rows, space.free_dim, A.m),
                                space.free_dim, A.m)
    elif space.compat_basis:
        # kernel equations of delta restricted to the compatible basis
        restricted = [[_dot(row, v, A.m) for v in space.compat_basis]
                      for _, row in sorted(rows.items())]
        combo = linalg.kernel_basis(restricted, space.compat_dim, A.m)
        Z = []
        for kv in combo:
            vec = space.zero_coords()
            for coeff, basis_vec in zip(kv, space.compat_basis):
                if not coeff.is_zero():
                    vec = [a + coeff * b for a, b in zip(vec, basis_vec)]
            Z.append(vec)
    else:
        Z = []
    Z = linalg.row_space_basis(Z) if Z else []
    # coboundaries from the compatible lower space
    lower = cochain_basis(A, R, n - 1, gamma)
    lower_cols = _delta_images(lower, r, lower.compat_basis)
    B = linalg.row_space_basis(lower_cols) if lower_cols else []
    if B and linalg.rank(Z + B) != len(Z):
        raise CochainError(
            "coboundary escaped the cocycle space; the complex is inconsistent here")
    reps = linalg.quotient_representatives(Z, B)
    return CohomologyResult(n, r, gamma, restrict, len(Z), len(B), len(Z) - len(B),
                            Z, B, reps, space)
