"""Functional calculus for the Neumann Laplacian on a finite eigenbasis.

With a quadrature-orthonormal basis (lambda_k, e_k), a bounded symbol phi
acts as

    phi(H) f = sum_k phi(lambda_k) <f, e_k> e_k,

with integral kernel K(x, y) = sum_k phi(lambda_k) e_k(x) e_k(y).  This
module provides the coefficient transforms (to_grid and to_coeffs, the one
seam between coefficient arrays and node values; synthesis costs O(band N),
the band running from the first to the last nonzero coefficient),
multiplier application, the heat semigroup, gradients, fractional resolvent
powers via the Gamma-function integral of the heat semigroup, and exact
endpoint operator norms of kernels.

Kernels are held in one of two forms.  On an analytic basis (interval or
rectangle) the cell-centred nodes turn every per-axis product
e_a(x_i) e_a(x_i') into a sum of two cosines of (i - i') and (i + i' + 1),
so the kernel of phi(H) is exactly a sum of 2^n reads of one profile: a
type-I DCT per axis of the symbol values (a DST-I on the axis of a
gradient kernel; Makhoul 1980), O(N log N) and equal to the dense sum up
to roundoff (see OperatorKernel and kernel_profile).  Each transform is the
real FFT (numpy.fft.rfft) of the symmetric extension of its input, which is
how pocketfft itself computes a DCT-I or DST-I, so no scipy module is
imported on this path.  The kernel keeps only
that profile: apply_kernel and the amalgam column norms read it in row
blocks, endpoint_norms in the row blocks of one row per mirror orbit,
norms.triple_norm in cube-sized slices of its transposed folds,
save_kernel writes it (3N - 1 numbers per axis)
and load_kernel reads it back, and the heat-envelope scan reads it through
heat_kernel (OperatorKernel.profile).
On a finite-difference basis the kernel keeps its mode factor instead:
E^T diag(phi(lambda)) E and G_c^T diag(phi(lambda)) E have rank at most the
band where phi is nonzero, and the kernel holds (phi, E) or
(diag(phi) G_c, E) over that band, O(band N) numbers.  apply_kernel takes
two thin products, endpoint_norms forms the upper block triangle strip by
strip, norms.triple_norm reads the factor cube size by cube size, and the
kernel file holds the factor.
No library path reads OperatorKernel.matrix, formed or not: the N^2 matrix
is formed only for a caller that asks for it, and a caller's own dense M is
held as the factor (M^T, I).
Every kernel carries the values its 2->2 norm is read from (OperatorKernel),
so no norm takes an SVD.

Every kernel carries a reported tail over the unresolved modes from
symbol_tail_bound: on an analytic basis an exact bound, the unresolved
eigenvalues summed directly up to a cutoff and a closed-form majorant past
it; nothing above the resolved band is silently discarded.
"""

from __future__ import annotations

import math
import warnings
import zipfile
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .domains import EigenBasis, Grid, fd_gradient
from .littlewood_paley import PartitionOfUnity

__all__ = [
    "GridFunction",
    "SpectralCoeffs",
    "SymbolFn",
    "OperatorKernel",
    "QuadratureWarning",
    "to_grid",
    "to_coeffs",
    "analyze",
    "synthesize",
    "apply_multiplier",
    "apply_kernel",
    "multiplier_kernel",
    "kernel_profile",
    "symbol_tail_bound",
    "heat_kernel",
    "resolvent_gamma",
    "gradient",
    "gradient_kernels",
    "endpoint_norms",
    "heat_symbol",
    "resolvent_symbol",
    "block_symbol",
    "bump_symbol",
    "cap_symbol",
    "power_block_symbol",
    "save_kernel",
    "load_kernel",
]


# ---------------------------------------------------------------------------
# Types


@dataclass
class GridFunction:
    """Real or complex samples on a quadrature grid."""

    values: NDArray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid ({self.grid.n_nodes},)"
            )

    def _shared(self, other: "GridFunction", op: str) -> NDArray:
        """other's values, once its grid is known to be this one."""
        if other.grid.grid_id() != self.grid.grid_id():
            raise ValueError(f"{op} needs a shared grid")
        return other.values

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values + self._shared(other, "sum"), self.grid)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values - self._shared(other, "difference"), self.grid)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.values * c, self.grid)

    __rmul__ = __mul__

    def product(self, other: "GridFunction") -> "GridFunction":
        """Pointwise product fg on the shared grid."""
        return GridFunction(self.values * self._shared(other, "pointwise product"), self.grid)

    def mean(self) -> float:
        return float(np.sum(self.grid.weights * self.values) / self.grid.domain.volume)

    @staticmethod
    def constant(grid: Grid, c: float = 1.0) -> "GridFunction":
        return GridFunction(np.full(grid.n_nodes, float(c)), grid)


@dataclass
class SpectralCoeffs:
    """Coefficients of a grid function in an eigenbasis."""

    values: NDArray
    basis: EigenBasis


@dataclass(frozen=True)
class SymbolFn:
    """Scalar symbol phi(lambda) applied through the calculus.

    fn must be vectorized over a float array of eigenvalues.  support, when
    given, is the interval outside which the symbol vanishes.  majorant,
    when given, is (c, q, t) with |phi(lambda)| <= c lambda^q e^{-t lambda}
    for every lambda > 0 in the support.  symbol_tail_bound reads both.
    """

    fn: Callable[[NDArray], NDArray]
    tag: str
    support: tuple[float, float] | None = None
    majorant: tuple[float, float, float] | None = None

    def __call__(self, lam: NDArray) -> NDArray:
        return self.fn(np.asarray(lam, dtype=float))


def _fold(src: NDArray, N: int, transpose: bool = False) -> tuple[NDArray, NDArray]:
    """Read-only views T[i, i'] = src[i - i' + N - 1] and H[i, i'] = src[i + i' + N]
    over the first axis of src (length 3N - 1), shape (N, N, *src.shape[1:]);
    with transpose T[i, i'] = src[i' - i + N - 1] in place of T.  Along i'
    T reads forward in a reversed copy of src, or with transpose in src
    itself."""
    base = src[:2 * N - 1] if transpose else src[2 * N - 2::-1].copy()
    T = np.moveaxis(sliding_window_view(base, N, axis=0), -1, 1)[::-1]
    return T, np.moveaxis(sliding_window_view(src[N:], N, axis=0), -1, 1)


def _rows(T: NDArray, H: NDArray, out: NDArray) -> NDArray:
    """out = T + H for (b, Nx, r, m) folds, the first r of the m second-axis
    rows of b first-axis indices, written as the b r kernel rows they hold
    (row j of index i at i r + j), shape (b r, Nx m)."""
    b, n0, r, m = T.shape
    np.add(T, H, out=out.reshape(b, r, n0, m).transpose(0, 2, 1, 3))
    return out


def _is_mirrored(prof: NDArray, shape: tuple[int, ...] | None) -> bool:
    """Whether prof has shape (3N - 1) per axis of shape and, on each axis,
    V(-q) = V(2N - q) = s V(q) value for value with one sign s = +-1."""
    if shape is None or prof.shape != tuple(3 * n - 1 for n in shape):
        return False
    for ax, n in enumerate(shape):
        p = np.moveaxis(prof, ax, 0)
        low, high = p[:2 * n - 1], p[n:]  # q = -(n-1)..n-1 and q = 1..2n-1
        if not any(np.array_equal(low, s * low[::-1]) and np.array_equal(high, s * high[::-1])
                   for s in (1.0, -1.0)):
            return False
    return True


class OperatorKernel:
    """Kernel K(x_i, y_j) acting by (Af)_i = sum_j w_j K_ij f_j.

    It is held in one of two forms, its source:

    - profile, on an analytic basis: the mirrored profile prof[q + N - 1] =
      V(q) per axis, q = -(N-1)..2N-1, shape (3N - 1,) on an interval and
      (3Nx - 1, 3Ny - 1) on a rectangle (see kernel_profile).  With
      d = i - i' and s = i + i' + 1 per axis,

          interval:  K = V(d) + V(s),
          rectangle: K = (V(d1, d2) + V(d1, s2)) + (V(s1, d2) + V(s1, s2)),

      summed in that order by every reader.  A profile must be mirrored,
      V(-q) = V(2N - q) = s V(q) value for value with one sign s = +-1 per
      axis (ValueError otherwise): reflecting both nodes on one axis then
      multiplies every entry by s, so |K| is the same on all rows of one
      mirror orbit.
    - factor = (U, V), on a finite-difference basis: K = U^T V with V the
      (band, N) modes where the symbol is nonzero, of rank at most band.  A
      1-D U holds the phi of U = diag(phi) V and marks K as symmetric; a
      2-D U is (band, N), diag(phi) G_c for a gradient kernel (ValueError
      for other shapes).  A caller's dense M is the factor (M^T, I).

    row_blocks() reads the kernel in blocks of rows; library code reads a
    kernel only through it, the factor (endpoint_norms, apply_kernel,
    norms.triple_norm), the profile and its transposed folds
    (norms.triple_norm).
    matrix forms the dense array on first access and keeps it for the
    caller; no reader reads it back.  From a profile it is summed in the
    readers' order, so all agree bit for bit, and from a factor it is the
    product (V^T diag(phi)) V or U^T V.

    max |symbol_values| is the exact 2->2 norm (on a finite-difference
    basis, up to the Gram deviation of its modes).  They are phi(lambda_k)
    for phi(H), and the singular values of d/dx_c phi(H): on an analytic
    basis, up to sign, -kappa_{k,c} phi(lambda_k), kappa_{k,c} = k_c pi / L_c, the
    factors mapping the grid-orthonormal cosines to grid-orthonormal sines;
    on a finite-difference basis sqrt(lambda(diag(phi) G_c W G_c^T diag(phi)))
    with W the node weights (the smallest to about 1e-8 of the largest).
    tail_bound, a required keyword so that no kernel claims 0.0 by default,
    bounds the truncation error of every entry only: sup_k |e_k|^2 sum_{k>K}
    |phi(lambda_k)| on an analytic basis (symbol_tail_bound).  Rounding comes
    on top; against the image sums of heat and its gradient on the
    pi-interval (K = 200, N = 512) it stayed under 5e-15 max|K|.
    """

    # Every kernel is scalar.  perfbench's tracer still reads this name off
    # traced kernels; ROADMAP item 1 drops that read.
    components = None

    def __init__(self, grid: Grid, tag: str, *, symbol_values: NDArray,
                 tail_bound: float, profile: NDArray | None = None,
                 factor: tuple[NDArray, NDArray] | None = None):
        if (profile is None) == (factor is None):
            raise ValueError("a kernel is given by exactly one of profile and factor")
        if profile is not None and not _is_mirrored(profile, grid.shape):
            raise ValueError(f"kernel {tag}: the profile is not a mirrored profile of the grid, "
                             "V(-q) = V(2N - q) = +-V(q) with one sign per axis")
        if factor is not None:
            U, V = factor
            if not (V.ndim == 2 and V.shape[1] == grid.n_nodes
                    and U.shape in (V.shape[:1], V.shape)):
                raise ValueError(f"kernel {tag}: factor U of shape {U.shape} and V of shape "
                                 f"{V.shape} are not (band,) or (band, N) beside (band, N), "
                                 f"N = {grid.n_nodes}")
        self.grid, self.tag, self.source = grid, tag, "profile" if factor is None else "factor"
        self.symbol_values, self.tail_bound = symbol_values, tail_bound
        self._profile, self._factor, self._matrix = profile, factor, None
        self._folded: dict[bool, tuple[NDArray, NDArray]] = {}

    def _folds(self, transpose: bool = False) -> tuple[NDArray, NDArray]:
        """(T, H) of shape (Nx, Nx, m, m), m = Ny on a rectangle and 1 on an
        interval, with K[(i, j), (i', j')] = T[i, i', j, j'] + H[i, i', j, j']
        (K^T with transpose); kept for the next read.  On a rectangle the
        y-axis sums A(q1)[j, j'] = V(q1, j - j') + V(q1, j + j' + 1) are
        formed first, (3Nx - 1) Ny^2 numbers, and T, H read A(i - i') and
        A(i + i' + 1)."""
        if transpose not in self._folded:
            prof, shape = self._profile, self.grid.shape
            if prof.ndim == 2:
                Ty, Hy = _fold(prof.T, shape[1], transpose)  # (Ny, Ny, 3Nx - 1)
                prof = np.empty((prof.shape[0], shape[1], shape[1]))
                np.add(Ty, Hy, out=prof.transpose(1, 2, 0))
            else:
                prof = prof[:, None, None]
            self._folded[transpose] = _fold(prof, shape[0], transpose)
        return self._folded[transpose]

    @property
    def profile(self) -> NDArray | None:
        """Read-only V(0..N) per axis of a profile kernel, (N + 1,) on an
        interval and (Nx + 1, Ny + 1) on a rectangle; None for another."""
        if self._profile is None:
            return None
        v = self._profile[tuple(slice(n - 1, 2 * n) for n in self.grid.shape)]
        v.flags.writeable = False
        return v

    @property
    def factor(self) -> tuple[NDArray, NDArray] | None:
        """(U, V) with K = U^T V for a factor kernel (a 1-D U standing for
        diag(U) V); None for another."""
        return self._factor

    @property
    def matrix(self) -> NDArray:
        if self._matrix is None:
            if self._factor is not None:
                U, V = self._factor
                self._matrix = (V.T * U) @ V if U.ndim == 1 else U.T @ V
            else:
                N = self.grid.n_nodes
                self._matrix = _rows(*self._folds(), np.empty((N, N)))
        return self._matrix

    def _factor_rows(self, rows) -> NDArray:
        """The (len(rows), band) left factor A of the rows (a slice or an
        index array) of a factor kernel, K[rows] = A V."""
        U, V = self._factor
        return V[:, rows].T * U if U.ndim == 1 else U[:, rows].T

    def row_blocks(self, orbit: bool = False):
        """Yield (r0, K[r0:r1]) down the kernel, 64 rows at a time (for a
        rectangle profile the multiple of Ny below it, at least Ny).  With
        orbit, a profile kernel yields only the rows of the nodes with
        i < ceil(N/2) on every axis, one row per mirror orbit, in node
        order, and r0 counts those rows.  A factor kernel forms each block
        from its factor.  Each block is written into one scratch array: the
        caller may overwrite it, not keep it."""
        N = self.grid.n_nodes
        T = H = None
        if self.source == "profile":
            T, H = self._folds()
            if orbit:  # the first half of the first-axis and of the row-node indices
                T, H = (A[:-(-A.shape[0] // 2), :, :-(-A.shape[2] // 2)] for A in (T, H))
        r = 1 if T is None else T.shape[2]  # rows per first-axis index
        n_rows = N if T is None else T.shape[0] * r
        step = max(1, 64 // r) * r
        buf = np.empty((min(step, n_rows), N))
        for r0 in range(0, n_rows, step):
            out = buf[:min(step, n_rows - r0)]
            if T is None:
                np.matmul(self._factor_rows(slice(r0, r0 + step)), self._factor[1], out=out)
            else:
                _rows(T[r0 // r:(r0 + step) // r], H[r0 // r:(r0 + step) // r], out)
            yield r0, out


# ---------------------------------------------------------------------------
# Symbol constructors


def _check(ok: bool, name: str, value: float, rule: str) -> None:
    """Raise ValueError naming the parameter unless ok."""
    if not ok:
        raise ValueError(f"{name}={value} must be {rule}")


def heat_symbol(t: float) -> SymbolFn:
    _check(0 < t < math.inf, "t", t, "positive and finite")
    return SymbolFn(fn=lambda lam: np.exp(-t * lam), tag=f"heat:t={t:g}", majorant=(1.0, 0.0, t))


def resolvent_symbol(beta: float, M: float, theta: float = 1.0) -> SymbolFn:
    _check(0 < beta < math.inf, "beta", beta, "positive and finite")
    _check(0 < theta < math.inf, "theta", theta, "positive and finite")
    _check(0 <= M < math.inf, "M", M, "finite and >= 0")  # M = 0: assembly rejects lambda = 0
    with np.errstate(over="ignore"):  # an overflow to inf still bounds (theta lam)^-beta
        c = float(np.power(theta, -beta))
    return SymbolFn(
        fn=lambda lam: (theta * lam + M) ** (-beta),
        tag=f"resolvent:beta={beta:g},M={M:g},theta={theta:g}",
        majorant=(c, -beta, 0.0),
    )


def block_symbol(pou: PartitionOfUnity, j: int) -> SymbolFn:
    """phi_j(sqrt(lambda)): the dyadic frequency block at scale 2^j.

    The support (lo 2^j)^2, (hi 2^j)^2 is formed in numpy floats, so a large
    j gives inf (and is rejected) rather than an OverflowError.
    """
    e = max(-2048, min(j, 2048))  # past +-2048 every bound is 0 or inf anyway
    with np.errstate(over="ignore"):
        support = tuple(float(np.square(np.ldexp(b, e))) for b in pou.phi0_support)
    _check(math.isfinite(support[1]), "j", j, "small enough that the support is finite")

    def fn(lam: NDArray) -> NDArray:
        return pou.phi(j, np.sqrt(np.maximum(lam, 0.0)))

    return SymbolFn(fn=fn, tag=f"block:j={j},pou={pou.variant}", support=support,
                    majorant=(1.0, 0.0, 0.0))


def bump_symbol(pou: PartitionOfUnity, theta: float) -> SymbolFn:
    """phi_0(theta lambda): the base bump in the operator variable itself.

    phi_0 eats lambda directly here, not sqrt(lambda), so its support in
    lambda is phi0_support divided by theta, not squared.
    """
    _check(0 < theta < math.inf, "theta", theta, "positive and finite")
    lo, hi = pou.phi0_support
    return SymbolFn(fn=lambda lam: pou.phi0(theta * lam),
                    tag=f"bump:theta={theta:g},pou={pou.variant}",
                    support=(lo / theta, hi / theta), majorant=(1.0, 0.0, 0.0))


def cap_symbol(pou: PartitionOfUnity, j: int | None = None) -> SymbolFn:
    """psi(lambda), or its rescaling psi(2^{-2j} lambda) when j is given.

    The rescaling is an ldexp with the exponent clamped to +-2048, so a
    large |j| scales lambda to (nearly) 0 or to inf, where psi is 1 or 0,
    rather than raising an OverflowError.  psi(mu) = chi(sqrt(mu)) vanishes
    from mu = 4 on, so the support is (0, 4), or (0, 4 4^j) through the same
    clamped ldexp (inf past the float range).
    """
    hi = pou.phi0_support[1] ** 2  # chi vanishes from phi0_support[1] = 2 on
    if j is None:
        return SymbolFn(fn=lambda lam: pou.psi(lam), tag=f"cap:pou={pou.variant}",
                        support=(0.0, hi), majorant=(1.0, 0.0, 0.0))
    e = max(-2048, min(-2 * j, 2048))  # past +-2048 psi takes the same values, clamped or not

    def fn(lam: NDArray) -> NDArray:
        with np.errstate(over="ignore"):
            return pou.psi(np.ldexp(lam, e))

    with np.errstate(over="ignore"):
        hi = float(np.ldexp(hi, -e))
    return SymbolFn(fn=fn, tag=f"cap:j={j},pou={pou.variant}", support=(0.0, hi),
                    majorant=(1.0, 0.0, 0.0))


def power_block_symbol(pou: PartitionOfUnity, j: int, alpha: float) -> SymbolFn:
    """lambda^alpha phi_j(sqrt(lambda)), with the 0 * 0^alpha corner pinned to 0.

    The bump vanishes at lambda = 0, so the product is 0 there for every
    alpha, including negative powers where lambda^alpha alone blows up.
    """
    _check(math.isfinite(alpha), "alpha", alpha, "finite")
    base = block_symbol(pou, j)

    def fn(lam: NDArray) -> NDArray:
        b = base(lam)
        out = np.zeros_like(b)
        nz = b != 0.0
        out[nz] = lam[nz] ** alpha * b[nz]
        return out

    return SymbolFn(fn=fn, tag=f"powerblock:j={j},alpha={alpha:g},pou={pou.variant}",
                    support=base.support, majorant=(1.0, alpha, 0.0))


# ---------------------------------------------------------------------------
# Transforms and multipliers


def _band(C: NDArray) -> slice:
    """The rows [first nonzero, last nonzero + 1) of a (K,) vector or a
    (K, S) stack; empty when C is all zero."""
    nz = np.flatnonzero(C.reshape(len(C), -1).any(axis=1))
    return slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)


def to_grid(C: NDArray, basis: EigenBasis) -> NDArray:
    """Node values E^T C = sum_k C_k e_k of a (K,) coefficient vector or a
    (K, S) stack of S of them, in O(band N): only the band of rows from the
    first to the last nonzero one is read (eigenvalues are sorted, so a
    symbol's band is its spectral window), and an all-zero C gives zeros."""
    band = _band(C)
    return basis.functions[band].T @ C[band]


def to_coeffs(F: NDArray, basis: EigenBasis) -> NDArray:
    """Coefficients E (w F), c_k = sum_i w_i F_i e_k(x_i), of (N,) node values
    or an (N, S) stack of S of them."""
    w = basis.grid.weights
    return basis.functions @ ((w if F.ndim == 1 else w[:, None]) * F)


def _check_grid(f: GridFunction, grid: Grid, what: str) -> None:
    """Reject f on a grid other than grid: what it cannot be, on what."""
    if f.grid is not grid and f.grid.grid_id() != grid.grid_id():
        raise ValueError(f"function on {f.grid.grid_id()} cannot be {what} on {grid.grid_id()}")


def analyze(f: GridFunction, basis: EigenBasis) -> SpectralCoeffs:
    """c_k = sum_i w_i f_i e_k(x_i); rejects f on a grid other than the basis'."""
    _check_grid(f, basis.grid, "analyzed in a basis")
    return SpectralCoeffs(values=to_coeffs(f.values, basis), basis=basis)


def synthesize(coeffs: SpectralCoeffs) -> GridFunction:
    """f = sum_k c_k e_k."""
    return GridFunction(values=to_grid(coeffs.values, coeffs.basis), grid=coeffs.basis.grid)


def _symbol_values(symbol: SymbolFn, basis: EigenBasis) -> NDArray:
    """phi(lambda_k); rejects a symbol that is not finite on the spectrum."""
    svals = symbol(basis.eigenvalues)
    if not np.all(np.isfinite(svals)):
        bad = basis.eigenvalues[~np.isfinite(svals)]
        raise ValueError(f"symbol {symbol.tag} is not finite at eigenvalues {bad[:3]}...")
    return svals


def apply_multiplier(symbol: SymbolFn, f: GridFunction, basis: EigenBasis) -> GridFunction:
    """phi(H) f through the eigenbasis; rejects non-finite symbol values."""
    svals = _symbol_values(symbol, basis)
    c = analyze(f, basis)
    return synthesize(SpectralCoeffs(values=svals * c.values, basis=basis))


# symbol_tail_bound sums the unresolved modes of an analytic basis directly
# up to a cutoff about _TAIL_MODES modes past the resolved band (about 0.5 ms
# on the 32 x 32 rectangle), and bounds the rest in closed form.
_TAIL_MODES = 4096


def symbol_tail_bound(symbol: SymbolFn, basis: EigenBasis) -> float:
    """Reported tail of the truncated kernel part, sup_k |e_k|^2 sum_{k>K} |phi(lambda_k)|.

    On an analytic basis it is a bound (_lattice_tail): the unresolved
    eigenvalues summed directly up to a cutoff, a closed-form majorant past
    it, and the exact sup |e_k|^2 = 2^n / |Omega| of the unresolved modes.

    Two cases keep the leading-order Weyl partial sum (_weyl_partial_sum),
    an estimate, not a bound: finite-difference bases, and analytic ones
    where the remainder past the cutoff diverges or the symbol states no
    majorant there.  A resolvent with beta <= 1 in 2-D (beta <= 1/2 in 1-D)
    diverges; its value is a partial sum over 200,000 modes.

    Exactly zero when no unresolved mode lies in the support (on a
    finite-difference basis: when the support ends at or below the top
    resolved eigenvalue); inf when any tail term is not finite.
    """
    end = math.inf if symbol.support is None else symbol.support[1]
    if basis.kind == "analytic":
        tail = _lattice_tail(symbol, basis, end)
        if tail is not None:
            return float(2.0 ** basis.domain.n / basis.domain.volume * tail)
    if end <= float(basis.eigenvalues[-1]):
        return 0.0
    return _weyl_partial_sum(symbol, basis)


def _weyl_partial_sum(symbol: SymbolFn, basis: EigenBasis) -> float:
    """The next 200,000 unresolved eigenvalues from the inverse of the
    leading-order Weyl count, ((k - 1) pi / L)^2 on an interval (exact) and
    4 pi (k - 1) / |Omega| in 2-D (an overshoot: lambda_50 = 52 on the pi x pi
    square, estimate 62.4), summed with the mode sup-norm observed at the
    nodes (EigenBasis.sup2); inf when any term is not finite."""
    lam_top = float(basis.eigenvalues[-1])
    dom = basis.domain
    k1 = np.arange(basis.K, basis.K + 200_000, dtype=float)  # k - 1 for k > K
    lam_est = (k1 * np.pi / dom.lengths[0]) ** 2 if dom.n == 1 else 4 * np.pi * k1 / dom.volume
    lam_est = np.maximum(lam_est, lam_top)
    with np.errstate(over="ignore"):
        vals = np.abs(symbol(lam_est))
    if not np.all(np.isfinite(vals)):
        return math.inf
    return float(np.sum(vals) * basis.sup2())


def _lattice_tail(symbol: SymbolFn, basis: EigenBasis, end: float) -> float | None:
    """sum_{k>K} |phi(lambda_k)| over the unresolved modes of an analytic
    basis, or a bound on it; None where the remainder below has no bound.

    The unresolved eigenvalues (every lattice mode (k_1 pi / L_1)^2 + ...
    not in basis.mode_index) are summed directly up to Lambda_c: the
    support end if it comes first, else the level where the count bound
    N+ below reaches K + _TAIL_MODES (at least lambda_K).  Past Lambda_c,
    Abel summation against N <= N+ bounds the rest by the symbol's majorant
    m = c lambda^q e^{-t lambda}, decreasing from a = max(Lambda_c, q / t)
    on and at most m(a) before:

        sum_{lambda_k > Lambda_c} m(lambda_k) <= m(a) (N+(a) - N(Lambda_c)) + int_a^end m dN+,

    with N+(lambda) = L sqrt(lambda) / pi + 1 on an interval and
    |Omega| lambda / (4 pi) + (Lx + Ly) sqrt(lambda) / pi + 1 on a rectangle
    (the lattice points of a quarter ellipse), dN+ = (A + B / (2 sqrt(lambda)))
    d lambda and the integral in closed form.  A majorant increasing up to a
    finite support end (t = 0 < q) is replaced by its value there.
    """
    lengths = basis.domain.lengths
    A = math.prod(lengths) / (4 * math.pi) if len(lengths) == 2 else 0.0
    B = sum(lengths) / math.pi
    n = basis.K + _TAIL_MODES - 1.0  # N+(lam_c) - 1
    root = n / B if A == 0 else 2 * n / (B + math.sqrt(B * B + 4 * A * n))
    lam_c = max(root * root, float(basis.eigenvalues[-1]))
    if end <= lam_c:
        lam_c = end
    elif symbol.majorant is None:
        return None
    else:
        c, q, t = (np.float64(v) for v in symbol.majorant)  # overflow gives inf, not an error
        if t == 0 < q:
            with np.errstate(over="ignore"):
                c, q = c * end ** q, np.float64(0.0)
        if t == 0 and end == math.inf and q >= (-1.0 if A else -0.5):
            return None
    lam, n_c = _modes_up_to(basis, lam_c)
    with np.errstate(over="ignore"):
        vals = np.abs(symbol(lam)) if lam.size else lam
    if not np.all(np.isfinite(vals)):
        return math.inf
    if end <= lam_c:
        return float(np.sum(vals))
    a = max(lam_c, q / t) if t > 0 < q else lam_c

    def integral(s):
        """int_a^end lambda^{s - 1} e^{-t lambda} d lambda, or (t > 0) a bound on it."""
        if t > 0:
            if s > 0:
                return t ** -s * _upper_gamma(s, t * a)
            return a ** (s - 1) * np.exp(-t * a) / t  # lambda^{s-1} <= a^{s-1}
        if s == 0:
            return np.log(end / a)
        return ((0.0 if end == math.inf else end ** s) - a ** s) / s

    with np.errstate(over="ignore"):
        boundary = max(A * a + B * np.sqrt(a) + 1.0 - n_c, 0.0)
        rest = (c * a ** q * np.exp(-t * a) * boundary if boundary else 0.0) + c * (
            (A * integral(q + 1) if A else 0.0) + 0.5 * B * integral(q + 0.5))
    return float(np.sum(vals) + rest)


def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = Gamma(s) Q(s, x) = int_x^inf u^{s-1} e^{-u} du, s > 0.

    Half-integer s up to 6 (the heat majorant, its gradient and their
    squares need s in {1/2, 1, 3/2, 2}) take the closed form
    Gamma(1/2, x) = sqrt(pi) erfc(sqrt x), Gamma(1, x) = e^{-x} and
    Gamma(r + 1, x) = r Gamma(r, x) + x^r e^{-x}, a sum of positive terms.
    For these s, Gamma(s, x) < 1e-308 where e^{-x} underflows (x > 745), so
    they read 0.0 there and nothing above the subnormal range is lost.  erfc
    of the rounded y = fl(sqrt x) alone is off by a relative 2 x eps (1.6e-13
    at x = 700); the factor e^{y^2 - x}, with y^2 - x formed without rounding
    error from a Veltkamp split of y, restores erfc(sqrt x).  (For huge x,
    y^2 - x is of the order of ulp(x) and the factor would overflow; the
    cut at 745 comes first.)  Every other s reads scipy.special, imported
    here so that no library tail loads it.
    """
    s, x = float(s), float(x)
    if not (s <= 6 and (2 * s).is_integer()):
        from scipy.special import gamma, gammaincc

        return float(gamma(s) * gammaincc(s, x))
    if x > 745:
        return 0.0
    e = math.exp(-x)
    if s % 1:
        y = math.sqrt(x)
        c = 134217729.0 * y  # 2^27 + 1: y = hi + lo, each half exactly squared
        hi = c - (c - y)
        lo = y - hi
        g, r = math.sqrt(math.pi) * math.erfc(y) * math.exp(
            -(((x - hi * hi) - 2 * hi * lo) - lo * lo)), 0.5
    else:
        g, r = e, 1.0
    while r < s:
        g = r * g + (x ** r * e if e else 0.0)
        r += 1.0
    return g


def _modes_up_to(basis: EigenBasis, lam_c: float) -> tuple[NDArray, int]:
    """The eigenvalues <= lam_c of the lattice modes an analytic basis
    leaves out, in no particular order (read-only), and N(lam_c), the count
    of every mode <= lam_c.  Kept on the basis per cutoff, up to 64 of them,
    so a repeated cutoff returns the identical array; every step is one dict
    operation, so threads at worst build one twice."""
    kept = basis._modes_below.get(lam_c)
    if kept is None:
        axes = [(np.arange(int(L * math.sqrt(lam_c) / math.pi) + 2) * np.pi / L) ** 2
                for L in basis.domain.lengths]
        lam = sum(np.ix_(*axes))
        below = lam <= lam_c
        k = np.asarray(basis.mode_index).reshape(basis.K, -1)
        k = k[np.all(k < lam.shape, axis=1)]
        resolved = np.zeros_like(below)
        resolved[tuple(k.T)] = True
        kept = lam[below & ~resolved], int(np.count_nonzero(below))
        kept[0].flags.writeable = False
        if len(basis._modes_below) >= 64:
            basis._modes_below.clear()
        basis._modes_below[lam_c] = kept
    return kept


def multiplier_kernel(symbol: SymbolFn, basis: EigenBasis) -> OperatorKernel:
    """Kernel of phi(H), sum_k phi(lambda_k) e_k(x) e_k(y), with tail report.

    Analytic bases keep the profile of one DCT-I per axis (kernel_profile);
    finite-difference bases keep the factor (phi, E) over the band where phi
    is nonzero, K = E^T diag(phi(lambda)) E.
    """
    (source,) = _assemble(symbol, basis, grad=False)
    return OperatorKernel(basis.grid, symbol.tag, tail_bound=symbol_tail_bound(symbol, basis),
                          **source)


def _assemble(symbol: SymbolFn, basis: EigenBasis, grad: bool) -> list[dict[str, NDArray]]:
    """The OperatorKernel source (profile= or factor=) and symbol_values= of
    phi(H), or with grad of d/dx_c phi(H) for every axis c; rejects symbols
    that are not finite on the spectrum.  On a finite-difference basis the
    factor is (phi, E) over the band where phi is nonzero, or (diag(phi) G_c,
    E) there for a gradient kernel: O(band N) numbers, no N x N array."""
    svals = _symbol_values(symbol, basis)
    if basis.kind == "analytic":
        return [{"profile": _mirrored(kernel_profile(svals, basis, c), c),
                 "symbol_values": svals if c is None else _gradient_values(svals, basis, c)}
                for c in (range(basis.domain.n) if grad else (None,))]
    E, band = basis.functions, _band(svals)
    if not grad:
        return [{"factor": (svals[band], E[band]), "symbol_values": svals}]
    Us = [svals[band, None] * Gc[band] for Gc in basis.gradients()]  # diag(phi) G_c, (b, N)
    zeros = np.zeros(basis.K - len(svals[band]))  # the singular values off the band
    return [{"factor": (U, E[band]), "symbol_values": np.concatenate((zeros, np.sqrt(np.maximum(
        np.linalg.eigvalsh((U * basis.grid.weights) @ U.T), 0.0))))} for U in Us]


def _gradient_values(svals: NDArray, basis: EigenBasis, axis: int) -> NDArray:
    """-kappa_{k,c} phi(lambda_k), kappa_{k,c} = k_c pi / L_c, on an analytic basis."""
    k = np.asarray(basis.mode_index).reshape(basis.K, -1)[:, axis]
    return -(k * np.pi / basis.domain.lengths[axis]) * svals


def _mirrored(V: NDArray, axis: int | None) -> NDArray:
    """The profile over q = -(N-1)..2N-1 on every axis from V(0..N), by
    V(-q) = V(2N - q) = V(q), or -V(q) on the differentiated axis."""
    for ax in range(V.ndim):
        m = np.take(V, np.arange(V.shape[ax] - 2, 0, -1), axis=ax)
        if ax == axis:
            m = -m
        V = np.concatenate((m, V, m), axis=ax)
    return V


def _type1(V: NDArray, ax: int, sine: bool = False) -> NDArray:
    """The DCT-I of V along axis ax, or with sine the DST-I of its interior
    q = 1..N-1 with zeros at q = 0 and q = N, as the rfft of the even (odd)
    extension written into one array of length 2N (see kernel_profile)."""
    n = V.shape[ax] - 1
    pre = (slice(None),) * ax
    mirror = V[pre + (slice(n - 1, 0, -1),)]
    ext = np.empty(V.shape[:ax] + (2 * n,) + V.shape[ax + 1:])
    ext[pre + (slice(0, n + 1),)] = V
    if not sine:
        ext[pre + (slice(n + 1, None),)] = mirror
        return np.fft.rfft(ext, axis=ax).real.copy()
    np.negative(mirror, out=ext[pre + (slice(n + 1, None),)])
    ext[pre + (0,)] = ext[pre + (n,)] = 0.0
    W = -np.fft.rfft(ext, axis=ax).imag
    W[pre + (0,)] = W[pre + (n,)] = 0.0  # the sine sum vanishes at q = 0 and q = N
    return W


def kernel_profile(svals: NDArray, basis: EigenBasis, axis: int | None = None) -> NDArray:
    """Profile V(q), q = 0..N per axis, of the kernel of phi(H), or with
    axis = c of d/dx_c phi(H), on an analytic interval or rectangle basis,
    from the symbol values svals = phi(lambda_k): shape (N + 1,) on an
    interval and (Nx + 1, Ny + 1) on a rectangle.

    On the nodes x_i = (i + 1/2) h, h = L/N, of one axis the product formula
    gives e_a(x_i) e_a(x_i') = (c_a / 2L) [cos(pi a d / N) + cos(pi a s / N)],
    d = i - i', s = i + i' + 1, c_0 = 1 and c_a = 2, and for the derivative
    (d/dx e_a = -kappa_a sqrt(c_a/L) sin(kappa_a x)) the same with
    -kappa_a sin in place of cos.  Multiplying over the n axes, the kernel is
    the sum over the 2^n choices of d or s per axis of

        V(q) = sum_k c_k phi(lambda_k) / (2^n prod L) prod_c cos(pi k_c q_c / N_c),

    c_k = prod_c c_(k_c): one DCT-I per axis, with one DST-I of
    -kappa phi in place of the DCT-I on the differentiated axis.  The other
    offsets follow by mirroring, V(-q) = V(2N - q) = +-V(q) per axis (- on
    the differentiated axis).  Cost O(N log N).

    Both transforms are one real FFT of length 2N of an extension of the
    input written into one array: the DCT-I of x_0..x_N is the real part of
    the rfft of the even extension x_0..x_N, x_{N-1}..x_1, and the DST-I of
    the interior x_1..x_{N-1} is minus the imaginary part of the rfft of the
    odd extension 0, x_1..x_{N-1}, 0, -x_{N-1}..-x_1.  The FFT of an even
    (odd) sequence pairs the terms j and 2N - j into x_0 + (-1)^k x_N +
    2 sum x_j cos(pi j k / N) (into -2i sum x_j sin(pi j k / N)), the
    transform's definition: an identity, not an approximation, and the route
    pocketfft itself takes for scipy.fft.dct/dst(type=1).
    """
    if not (basis.kind == "analytic" and basis.domain.kind in ("interval", "rectangle")):
        raise ValueError("kernel_profile needs an analytic interval or rectangle basis")
    shape, lengths = basis.grid.shape, basis.domain.lengths
    k = np.asarray(basis.mode_index).reshape(basis.K, -1)
    if axis is not None:
        svals = _gradient_values(svals, basis, axis)
    V = np.zeros(tuple(n + 1 for n in shape))
    V[tuple(k.T)] = svals / (2.0 ** len(shape) * math.prod(lengths))
    for ax in range(len(shape)):
        V = _type1(V, ax, sine=ax == axis)
    return V


def apply_kernel(kernel: OperatorKernel, f: GridFunction) -> GridFunction:
    """(Af)_i = sum_j w_j K_ij f_j for f on the kernel's grid: U^T (V (w f))
    as two thin products for a factor kernel, else one block of
    kernel.row_blocks() at a time, so no kernel forms its matrix."""
    _check_grid(f, kernel.grid, "acted on by a kernel")
    wf = f.grid.weights * f.values
    if kernel.source == "factor":
        U, V = kernel.factor
        c = V @ wf
        vals = V.T @ (U * c) if U.ndim == 1 else U.T @ c
    else:
        vals = np.concatenate([B @ wf for _, B in kernel.row_blocks()])
    return GridFunction(values=vals, grid=kernel.grid)


# ---------------------------------------------------------------------------
# Heat semigroup


def heat_kernel(t: float, basis: EigenBasis) -> OperatorKernel:
    return multiplier_kernel(heat_symbol(t), basis)


# ---------------------------------------------------------------------------
# Fractional resolvent powers via the heat integral


class QuadratureWarning(UserWarning):
    pass


# The resolvent quadrature is a rule of the library, not of the call: a
# log-time trapezoid rule for (H + M)^{-beta} = 1/Gamma(beta)
# int_0^inf t^{beta-1} e^{-Mt} e^{-tH} dt on _QUAD_NODES log-spaced times in
# [t_min, T].  T solves e^{-MT} T^{beta-1} < _QUAD_TAIL_EPS (upper
# truncation), and t_min is scaled so the omitted lower mass (at most
# ((lam_max + M) t_min)^beta / Gamma(beta+1) relative) stays below
# _QUAD_LOW_EPS across the whole resolved spectrum.  In the log variable the
# integrand family is a shift of one fixed shape, so the rule converges
# geometrically and the two truncation bounds dominate the error budget.
# A self-estimate above _QUAD_RTOL raises a QuadratureWarning.
_QUAD_NODES = 400
_QUAD_TAIL_EPS = 1e-14
_QUAD_LOW_EPS = 1e-10
_QUAD_RTOL = 1e-8


def _quadrature_nodes(beta: float, M: float, lam_max: float) -> NDArray:
    T = 1.0
    for _ in range(100):
        T_new = (math.log(1.0 / _QUAD_TAIL_EPS) + (beta - 1.0) * math.log(max(T, 1e-300))) / M
        if T_new <= 0:
            T_new = 1.0 / M
        if abs(T_new - T) < 1e-12 * max(1.0, T):
            T = T_new
            break
        T = T_new
    t_min = math.exp((math.log(_QUAD_LOW_EPS) + math.lgamma(beta + 1.0)) / beta) / (lam_max + M)
    t_min = min(t_min, T * 1e-6)
    return np.exp(np.linspace(math.log(t_min), math.log(T), _QUAD_NODES))


def resolvent_gamma(beta: float, M: float, f: GridFunction, basis: EigenBasis) -> GridFunction:
    """(H + M)^{-beta} f by integrating the heat semigroup against the
    Gamma-function weight; the independent route checked against the direct
    spectral multiplier (lambda + M)^{-beta}.

    The quadrature carries its own error estimate (halved-node comparison
    plus the analytic truncation bounds).  If it exceeds _QUAD_RTOL the
    result is still returned but a QuadratureWarning reports the estimate;
    nothing is silently accepted.  Rejects beta (through resolvent_symbol)
    and M that are not positive and finite.
    """
    _check(0 < M < math.inf, "M", M, "positive and finite")
    exact = resolvent_symbol(beta, M)
    lam = basis.eigenvalues
    ts = _quadrature_nodes(beta, M, float(lam[-1]))
    u = np.log(ts)
    du = u[1] - u[0]
    # Trapezoid in u = log t of the integrand t^beta e^{-(M + lam) t} /
    # Gamma(beta) per mode, formed as one exponential so that no factor
    # overflows or underflows on its own for a large beta.
    c = analyze(f, basis).values
    wts = np.full(len(ts), du)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    g = np.exp((beta * u - math.lgamma(beta)) - (M + lam)[:, None] * ts)  # (K, T)
    factors = (g * wts).sum(axis=1)
    # Self-estimate: the same rule on every second node.  The node count is
    # even, so the endpoint falls between the kept nodes; close the rule at
    # the last one.  It is relative to the exact factor, or to the smallest
    # normal number where that factor underflows, so no mode divides 0 by 0.
    wts2 = np.full(len(ts[::2]), 2 * du)
    wts2[0] *= 0.5
    wts2[-1] *= 1.5
    factors2 = (g[:, ::2] * wts2).sum(axis=1)
    scale = np.maximum(exact(lam), np.finfo(float).tiny)
    err_quad = float(np.max(np.abs(factors - factors2) / scale))
    err_trunc = _QUAD_LOW_EPS + _QUAD_TAIL_EPS
    if err_quad + err_trunc > _QUAD_RTOL:
        warnings.warn(
            f"resolvent quadrature self-estimate {err_quad + err_trunc:.2e} exceeds "
            f"rtol={_QUAD_RTOL:g}",
            QuadratureWarning,
            stacklevel=2,
        )
    return synthesize(SpectralCoeffs(values=factors * c, basis=basis))


# ---------------------------------------------------------------------------
# Gradients


def gradient(f: GridFunction, basis: EigenBasis | None = None) -> NDArray:
    """(n, N) gradient field of f.

    With an analytic basis the cosine expansion is differentiated termwise
    (exact up to the resolved band); otherwise finite differences on the
    grid (centered interior, one-sided second-order at boundaries).
    """
    if basis is not None and basis.kind == "analytic":
        c = analyze(f, basis).values
        G = basis.gradients()  # (n, K, N)
        return np.einsum("k,nkb->nb", c, G)
    return fd_gradient(np.asarray(f.values, dtype=float), f.grid)


class _AxisKernels(tuple):
    """A plain tuple of the per-axis gradient kernels, plus the grid and the
    components = None that perfbench's tracer reads off a traced kernel;
    ROADMAP item 1 drops that read, and this class with it."""

    components = None

    @property
    def grid(self) -> Grid:
        return self[0].grid


def gradient_kernels(symbol: SymbolFn, basis: EigenBasis) -> tuple[OperatorKernel, ...]:
    """The scalar kernels (d/dx_c) K(x, y) of d/dx_c phi(H), one per axis c.

    Analytic bases keep each kernel's profile (kernel_profile with
    axis = c: a DST-I on axis c, a DCT-I on the other); finite-difference
    bases keep the factor (diag(phi) G_c, E) of G_c^T diag(phi(lambda)) E,
    with the mode gradients G_c over the band where phi is nonzero, and the
    singular values from that band's Gram, padded with zeros to length K.  Each
    carries the symbol_values of its 2->2 norm (OperatorKernel); all share
    the tail bound of sqrt(lambda) phi(lambda).
    """
    sources = _assemble(symbol, basis, grad=True)
    maj = symbol.majorant
    tail = symbol_tail_bound(
        SymbolFn(fn=lambda lam: np.sqrt(np.maximum(lam, 0.0)) * symbol(lam),
                 tag=symbol.tag, support=symbol.support,
                 majorant=maj and (maj[0], maj[1] + 0.5, maj[2])),
        basis,
    )
    return _AxisKernels(
        OperatorKernel(basis.grid, f"grad{c}:{symbol.tag}", tail_bound=tail, **source)
        for c, source in enumerate(sources)
    )


# ---------------------------------------------------------------------------
# Operator norms from kernels


def endpoint_norms(kernel: OperatorKernel) -> dict[str, float]:
    """Exact endpoint operator norms of a kernel on the weighted grid.

    1->1: max over columns of the weighted absolute column sum; 1->inf:
    max |K_ij|; inf->inf: max weighted absolute row sum.  2->2: max
    |symbol_values| (OperatorKernel).  No kernel forms its matrix.

    A profile kernel is read one row per mirror orbit, the nodes with
    i < ceil(N/2) on every axis: its profile is mirrored (OperatorKernel)
    and the interval and rectangle weights are uniform, so the rows of an
    orbit hold the same |K|, one read backwards on the reflected axes of
    another.  That gives 1->inf bit for bit and inf->inf up to the order
    of summation, and the column sums are the orbit rows' partial sums
    plus their flip on each axis, a row on a mirror line (odd N) weighted
    1/2 per such axis.

    A symmetric factor kernel (finite-difference phi(H)) is read by its
    upper block triangle, K[r0:r1, r0:] in strips of 128 rows formed from
    the factor: each block's weighted absolute row sums go to its rows and
    its column sums to the rows of its mirror block below the diagonal, so
    every block is formed once, and 1->1 = inf->inf is one number.  Any
    other kernel is read in full, one kernel.row_blocks() pass.
    """
    w, shape = kernel.grid.weights, kernel.grid.shape
    two = float(np.max(np.abs(kernel.symbol_values)))
    if kernel.source == "factor" and kernel.factor[0].ndim == 1:
        N, V = w.size, kernel.factor[1]
        rows, peak = np.zeros(N), 0.0
        buf = np.empty(min(128, N) * N)
        for r0 in range(0, N, 128):
            r1 = min(r0 + 128, N)
            mag = np.matmul(kernel._factor_rows(slice(r0, r1)), V[:, r0:],
                            out=buf[:(r1 - r0) * (N - r0)].reshape(r1 - r0, N - r0))
            np.abs(mag, out=mag)
            rows[r0:r1] += mag @ w[r0:]
            rows[r1:] += w[r0:r1] @ mag[:, r1 - r0:]
            peak = max(peak, float(mag.max()))
        one = float(np.max(rows))
        return {"1->1": one, "1->inf": peak, "inf->inf": one, "2->2": two}
    orbit = kernel.source == "profile"
    cw = w
    if orbit:
        node = np.indices([-(-n // 2) for n in shape]).reshape(len(shape), -1)
        on_line = sum(2 * i + 1 == n for i, n in zip(node, shape))
        cw = w[np.ravel_multi_index(node, shape)] * 0.5 ** on_line
    cols, rows, peaks = np.zeros(w.size), np.empty(cw.size), np.empty(cw.size)
    for r0, B in kernel.row_blocks(orbit):
        mag = np.abs(B, out=B)
        r1 = r0 + len(mag)
        cols += cw[r0:r1] @ mag
        rows[r0:r1] = mag @ w
        peaks[r0:r1] = mag.max(axis=1)
    if orbit:
        cols = cols.reshape(shape)
        for ax in range(len(shape)):
            cols = cols + np.flip(cols, ax)
    return {"1->1": float(np.max(cols)), "1->inf": float(np.max(peaks)),
            "inf->inf": float(np.max(rows)), "2->2": two}


# ---------------------------------------------------------------------------
# Kernel files


KERNEL_FORMAT = "nbesov-kernel/3"

# The fields of each kernel source in a KERNEL_FORMAT file.
_SOURCE_FIELDS = {"profile": ("profile",), "factor": ("factor_u", "factor_v")}


def save_kernel(kernel: OperatorKernel, path: str) -> None:
    """Binary dump (npz) of format KERNEL_FORMAT to exactly path: the
    kernel's one source (OperatorKernel), as the field profile (the
    mirrored profile, 3N - 1 numbers per axis) or the fields factor_u and
    factor_v (U and V, (band + 1) N numbers for phi(H) on a
    finite-difference basis: 1.9 MB at N = 1200 and 7.7 MB at N = 4800 with
    band = 200; 2 N^2 for a caller's dense (M^T, I)), with the tag, grid id,
    tail bound and symbol values."""
    arrays = (kernel._profile,) if kernel.source == "profile" else kernel.factor
    source = dict(zip(_SOURCE_FIELDS[kernel.source], arrays))
    with open(path, "wb") as fh:
        np.savez(fh, format=np.array(KERNEL_FORMAT), **source,
                 tag=np.array(kernel.tag), grid_id=np.array(kernel.grid.grid_id()),
                 tail_bound=np.array(kernel.tail_bound, dtype=float),
                 symbol_values=kernel.symbol_values)


def load_kernel(path: str, grid: Grid) -> OperatorKernel:
    """Read a save_kernel file for grid.  ValueError names the file unless
    it has the fields of KERNEL_FORMAT for one source (the profile on an
    interval or rectangle grid and the factor on any other, where the file
    holds no source field), grid's id, a finite float64 source of grid's
    shape (a mirrored profile, or a factor V of shape (band, N) with U of
    shape (band,) or (band, N), as OperatorKernel requires), finite float64
    symbol values of shape (K,), K >= 1, and a float64 scalar tail bound
    >= 0 (inf is kept).  Files of earlier formats are refused by their
    format field, and a file with a field of neither source (such as a
    dense matrix) by that field."""
    try:
        with np.load(path, allow_pickle=False) as z:
            fmt = str(z["format"]) if "format" in z.files else None
            if fmt != KERNEL_FORMAT:
                raise ValueError(f"not a {KERNEL_FORMAT} file (field 'format' is {fmt!r}); "
                                 "rebuild it with nbesov multiplier --out or nbesov heat --out")
            kind = next((k for k, names in _SOURCE_FIELDS.items() if set(names) & set(z.files)),
                        "factor" if grid.shape is None else "profile")
            names = _SOURCE_FIELDS[kind]
            fields = {"format", *names, "tag", "grid_id", "tail_bound", "symbol_values"}
            if set(z.files) != fields:
                raise ValueError(f"missing fields {sorted(fields - set(z.files))}, unexpected fields "
                                 f"{sorted(set(z.files) - fields)} for a {KERNEL_FORMAT} file")
            f = {k: z[k] for k in fields}
        if str(f["grid_id"]) != grid.grid_id():
            raise ValueError(f"kernel was dumped for grid {f['grid_id']}, not {grid.grid_id()}")
        sv, tail = f["symbol_values"], f["tail_bound"]
        for field in (*names, "symbol_values", "tail_bound"):
            if f[field].dtype != np.float64:
                raise ValueError(f"kernel {field} has dtype {f[field].dtype}, not float64")
        if kind == "profile":  # OperatorKernel checks the shapes of a factor
            if grid.shape is None:
                raise ValueError(f"a profile kernel needs an interval or rectangle grid, "
                                 f"not {grid.grid_id()}")
            shape = tuple(3 * n - 1 for n in grid.shape)
            if f["profile"].shape != shape:
                raise ValueError(f"kernel profile has shape {f['profile'].shape}, expected {shape}")
        if sv.ndim != 1 or sv.size == 0 or tail.ndim != 0:
            raise ValueError(f"kernel symbol_values of shape {sv.shape} and tail_bound of shape "
                             f"{tail.shape} are not a non-empty vector and a scalar")
        if not all(np.all(np.isfinite(f[field])) for field in (*names, "symbol_values")):
            raise ValueError(f"kernel {' or '.join(names)} or symbol values are not finite")
        if not tail >= 0.0:  # inf stays legal: a divergent tail reads inf
            raise ValueError(f"tail bound {float(tail)!r} is not >= 0")
        source = tuple(f[n] for n in names) if kind == "factor" else f[kind]
        # OperatorKernel refuses a profile that is not mirrored and a factor
        # whose U and V do not fit each other and the grid.
        return OperatorKernel(grid, str(f["tag"]), **{kind: source}, symbol_values=sv,
                              tail_bound=float(tail))
    except (ValueError, zipfile.BadZipFile) as exc:  # BadZipFile: a truncated or corrupt file
        raise ValueError(f"{path}: {exc}") from exc
