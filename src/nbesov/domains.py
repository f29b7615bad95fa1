"""Model domains, cell-centered grids, and Neumann eigenbases.

Supported domains are intervals [0, L], axis-aligned rectangles
[0, Lx] x [0, Ly], and axis-aligned polygons (e.g. the L-shape
[0, 2]^2 minus (1, 2)^2).  Grids are cell-centered with uniform spacing h
per axis: nodes x_i = (i - 1/2) h and weights w_i = h^n.  On such grids the
midpoint sums of cosine products are exact, so the analytic interval and
rectangle eigenbases are quadrature-orthonormal to roundoff.

Eigenbases come in two kinds:

* analytic -- closed-form cosine modes.  Interval: lambda_k =
  ((k-1) pi / L)^2 with e_k proportional to cos((k-1) pi x / L); rectangles
  tensor two interval families and sort by eigenvalue (lexicographic
  tie-break on the mode pair).
* numeric -- the 5-point finite-difference Neumann Laplacian (ghost-point
  reflection) on a polygon mesh, smallest-K eigenpairs via shift-invert
  Lanczos, deterministically postprocessed (cluster re-orthonormalization
  and a sign convention) so repeated builds are byte-identical.

A per-axis resolution cutoff Lambda = (pi / 2h)^2 caps the modes a grid may
carry; requests beyond it are rejected rather than silently aliased.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

__all__ = [
    "Domain",
    "Grid",
    "EigenBasis",
    "interval_domain",
    "rectangle_domain",
    "lshape_domain",
    "build_interval_basis",
    "build_rectangle_basis",
    "build_fd_basis",
    "cosine_modes",
    "lp_columns",
    "lp_norm",
    "save_basis",
    "load_basis",
    "weyl_eigenvalue_estimate",
]


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Domain:
    """Bounded model domain in dimension n in {1, 2}.

    kind is one of "interval", "rectangle", "polygon".  For polygons,
    ``cells`` holds the axis-aligned unit of description: a list of
    rectangles (x0, x1, y0, y1) whose union is the domain.
    """

    kind: str
    n: int
    lengths: tuple[float, ...]
    volume: float
    cells: tuple[tuple[float, float, float, float], ...] = ()


def interval_domain(L: float) -> Domain:
    if not 0 < L < math.inf:
        raise ValueError(f"interval length L={L} must be positive and finite")
    return Domain(kind="interval", n=1, lengths=(float(L),), volume=float(L))


def rectangle_domain(Lx: float, Ly: float) -> Domain:
    if not (0 < Lx < math.inf and 0 < Ly < math.inf):
        raise ValueError(f"rectangle sides Lx={Lx}, Ly={Ly} must be positive and finite")
    return Domain(kind="rectangle", n=2, lengths=(float(Lx), float(Ly)), volume=float(Lx * Ly))


def lshape_domain() -> Domain:
    """The L-shape [0, 2]^2 with the open quadrant (1, 2)^2 removed."""
    cells = ((0.0, 1.0, 0.0, 2.0), (1.0, 2.0, 0.0, 1.0))
    return Domain(kind="polygon", n=2, lengths=(2.0, 2.0), volume=3.0, cells=cells)


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class Grid:
    """Cell-centered quadrature grid.

    points : (N, n) node coordinates; weights : (N,) quadrature weights
    (uniform h^n); spacing : per-axis h.  For structured grids ``index``
    holds the integer cell coordinates of each node, used by the
    finite-difference stencils.
    """

    domain: Domain
    points: NDArray
    weights: NDArray
    spacing: tuple[float, ...]
    index: NDArray | None = None
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        total = float(self.weights.sum())
        if not np.isclose(total, self.domain.volume, rtol=1e-12, atol=0.0):
            raise ValueError(
                f"quadrature weights sum to {total!r}, expected domain volume "
                f"{self.domain.volume!r}"
            )

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    @property
    def h(self) -> float:
        """Largest per-axis spacing (the resolution scale)."""
        return max(self.spacing)

    @property
    def resolution_cutoff(self) -> float:
        """Sum over axes of the per-axis mode cap (pi / 2h)^2."""
        return float(sum((np.pi / (2.0 * h)) ** 2 for h in self.spacing))

    def grid_id(self) -> str:
        """kind[lengths]/h=spacing/N=nodes, floats at full (repr) precision;
        a polygon also names its cells, kind[lengths]{x0,x1,y0,y1;...}."""
        dom = self.domain
        dims, hs = ("x".join(repr(float(v)) for v in vs) for vs in (dom.lengths, self.spacing))
        cells = ";".join(",".join(repr(float(v)) for v in c) for c in dom.cells)
        shape = f"{{{cells}}}" if dom.cells else ""
        return f"{dom.kind}[{dims}]{shape}/h={hs}/N={self.n_nodes}"


def _cell_grid(domain: Domain, spacing: tuple[float, ...], index: NDArray,
               shape: tuple[int, ...] | None) -> Grid:
    """The grid whose node p is the centre (index[p] + 1/2) h of an integer
    cell, per axis spacing h, with weight prod h."""
    return Grid(domain=domain, points=(index + 0.5) * np.asarray(spacing),
                weights=np.full(len(index), math.prod(spacing)), spacing=spacing,
                index=index, shape=shape)


def interval_grid(L: float, N: int) -> Grid:
    return _cell_grid(interval_domain(L), (L / N,), np.arange(N)[:, None], (N,))


def rectangle_grid(Lx: float, Ly: float, Nx: int, Ny: int) -> Grid:
    # Node ordering: x-major, i.e. node p = ix * Ny + iy.
    index = np.indices((Nx, Ny)).reshape(2, -1).T.copy()
    return _cell_grid(rectangle_domain(Lx, Ly), (Lx / Nx, Ly / Ny), index, (Nx, Ny))


def polygon_grid(domain: Domain, h: float) -> Grid:
    """Cell-centered mesh of an axis-aligned polygon with spacing h.

    Every rectangle in the domain description must be an integer number of
    cells in each direction, so the mesh tiles the domain exactly.
    """
    if domain.kind != "polygon":
        raise ValueError("polygon_grid requires a polygon domain")
    blocks = []
    for (x0, x1, y0, y1) in domain.cells:
        for span, name in (((x1 - x0), "x"), ((y1 - y0), "y")):
            m = span / h
            if abs(m - round(m)) > 1e-9:
                raise ValueError(
                    f"spacing h={h} does not tile the {name}-span {span} of a domain cell"
                )
        ox, oy = int(round(x0 / h)), int(round(y0 / h))
        mx, my = int(round((x1 - x0) / h)), int(round((y1 - y0) / h))
        blocks.append(np.indices((mx, my)).reshape(2, -1).T + (ox, oy))
    # Deterministic node order: sort by (ix, iy).
    idx = np.concatenate(blocks)
    idx = idx[np.lexsort((idx[:, 1], idx[:, 0]))]
    if np.any(np.all(idx[1:] == idx[:-1], axis=1)):
        raise ValueError("domain cells overlap")
    return _cell_grid(domain, (h, h), idx, None)


def _neighbours(grid: Grid, axis: int, offset: int) -> NDArray:
    """Node number at index + offset along axis for every node, -1 where the
    grid has no such node; read from the index table padded by |offset|."""
    pad = abs(offset)
    pos = grid.index - grid.index.min(axis=0) + pad
    table = np.full(pos.max(axis=0) + 1 + pad, -1)
    table[tuple(pos.T)] = np.arange(grid.n_nodes)
    pos[:, axis] += offset
    return table[tuple(pos.T)]


# ---------------------------------------------------------------------------
# Eigenbases


@dataclass
class EigenBasis:
    """Finite Neumann eigenbasis sampled on a grid.

    eigenvalues : (K,) sorted ascending, eigenvalues[0] = 0.
    functions : (K, N) node samples, quadrature-orthonormal:
        functions @ diag(w) @ functions.T = I.
    kind : "analytic" or "numeric".
    mode_index : per-mode metadata (interval: wavenumber k-1; rectangle:
        the pair (a, b); numeric: solver position).

    gradients() and sup2() are filled on first use and kept.
    """

    grid: Grid
    eigenvalues: NDArray
    functions: NDArray
    kind: str
    mode_index: list = field(default_factory=list)
    _gradients: NDArray | None = field(default=None, init=False, repr=False, compare=False)
    _sup2: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def K(self) -> int:
        return len(self.eigenvalues)

    @property
    def domain(self) -> Domain:
        return self.grid.domain

    @property
    def lambda_cutoff(self) -> float:
        return self.grid.resolution_cutoff

    def gram(self) -> NDArray:
        W = self.grid.weights
        return (self.functions * W) @ self.functions.T

    def validate(self) -> None:
        """Check the basis invariants; raise ValueError on violation."""
        lam = self.eigenvalues
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(self.functions))):
            raise ValueError("basis carries non-finite eigenvalues or mode values")
        if np.any(np.diff(lam) < -1e-12):
            raise ValueError("eigenvalues are not sorted")
        if abs(lam[0]) > 1e-10:
            raise ValueError(f"lowest eigenvalue {lam[0]!r} is not 0 within 1e-10")
        if np.any(lam > self.lambda_cutoff * (1 + 1e-12)):
            raise ValueError("basis carries modes beyond the grid resolution cutoff")
        const = self.domain.volume ** -0.5
        if not np.allclose(self.functions[0], const, rtol=0, atol=1e-8 * const):
            raise ValueError("lowest mode is not the constant |Omega|^{-1/2}")
        tol = 1e-8 if self.kind == "analytic" else 1e-6
        G = self.gram()
        dev = np.max(np.abs(G - np.eye(self.K)))
        if dev > tol:
            raise ValueError(f"Gram matrix deviates from identity by {dev:.3e} > {tol:g}")

    def gradients(self) -> NDArray:
        """(n, K, N) per-axis derivatives of every mode at the nodes.

        Analytic bases differentiate the cosine factors termwise; numeric
        bases fall back to finite differences of the sampled modes.
        """
        if self._gradients is None:
            self._gradients = _mode_gradients(self)
        return self._gradients

    def sup2(self) -> float:
        """max_{k, i} e_k(x_i)^2, the largest squared node value of any mode."""
        if self._sup2 is None:
            E = self.functions  # max |E| without a (K, N) |E| temporary
            self._sup2 = float(max(E.max(), -E.min()) ** 2)
        return self._sup2


def cosine_modes(lengths: Sequence[float], shape: Sequence[int], modes: Sequence,
                 derivatives: bool = False) -> NDArray:
    """(K, N) samples of the normalized Neumann cosine products at the
    cell-centred nodes, or with derivatives their (n, K, N) per-axis
    derivatives.

    modes lists K mode numbers (interval) or mode tuples (a, b) (rectangle,
    nodes x-major).  Per axis e_0 = L^{-1/2} and e_k = sqrt(2/L) cos(k pi x / L),
    with derivative -sqrt(2/L) kappa sin(kappa x), kappa = k pi / L.  The
    two arguments are rounded in those two orders, and derivative factors
    vanish as +0.0, so every sample is the bit pattern of the termwise
    closed form.  Raises ValueError if a sample is not finite.
    """
    k = np.asarray(modes).reshape(len(modes), -1)
    vals, ders = [], []
    for d, (L, N) in enumerate(zip(lengths, shape)):
        x, kd, flat = interval_grid(L, N).points[:, 0], k[:, d:d + 1], k[:, d] == 0
        if not derivatives or len(lengths) > 1:  # 1-D derivatives need no cosines
            v = kd * np.pi * x
            v /= L
            np.cos(v, out=v)
            v *= np.sqrt(2.0 / L)
            v[flat] = L ** -0.5
            if not np.isfinite(v).all():
                raise ValueError(f"axis length {L} gives non-finite mode samples")
            vals.append(v)
        if derivatives:
            kappa = kd * np.pi / L
            g = kappa * x
            np.sin(g, out=g)
            g *= -np.sqrt(2.0 / L) * kappa
            g[flat] = 0.0
            ders.append(g)
    if len(lengths) == 1:
        return ders[0][None] if derivatives else vals[0]
    (fx, fy), K = vals, len(k)
    if not derivatives:
        return (fx[:, :, None] * fy[:, None, :]).reshape(K, -1)
    G = np.stack([ders[0][:, :, None] * fy[:, None, :], fx[:, :, None] * ders[1][:, None, :]])
    G = G.reshape(2, K, -1)
    G[k.T == 0] = 0.0  # a zero factor times a negative cosine would give -0.0
    return G


def build_interval_basis(L: float, K: int, N: int = 512) -> EigenBasis:
    """Closed-form Neumann basis on [0, L] with K modes on an N-node grid.

    lambda_k = ((k-1) pi / L)^2; e_1 is constant.  Requires K <= N and the
    top mode to sit below the per-axis resolution cutoff (k-1 <= N/2).
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > N:
        raise ValueError(f"K={K} exceeds the number of grid nodes N={N}")
    if K - 1 > N / 2:
        raise ValueError(
            f"K={K} asks for modes beyond the resolution cutoff (k-1 <= N/2 = {N / 2:g})"
        )
    ks, lam = list(range(K)), (np.arange(K, dtype=float) * np.pi / L) ** 2
    return EigenBasis(grid=interval_grid(L, N), eigenvalues=lam,
                      functions=cosine_modes((L,), (N,), ks), kind="analytic", mode_index=ks)


def rectangle_mode_table(Lx: float, Ly: float, Nx: int, Ny: int) -> list[tuple[float, int, int]]:
    """All tensor modes below the per-axis cutoffs, sorted by (lambda, a, b)."""
    amax = Nx // 2
    bmax = Ny // 2
    table = []
    for a in range(amax + 1):
        la = (a * np.pi / Lx) ** 2
        for b in range(bmax + 1):
            lb = (b * np.pi / Ly) ** 2
            table.append((la + lb, a, b))
    table.sort(key=lambda t: (t[0], t[1], t[2]))
    return table


def build_rectangle_basis(Lx: float, Ly: float, K: int, Nx: int = 64, Ny: int = 64) -> EigenBasis:
    """Tensor-cosine Neumann basis on [0, Lx] x [0, Ly].

    Modes e_(a,b)(x, y) = e_a(x) e_b(y) with lambda = (a pi/Lx)^2 +
    (b pi/Ly)^2, sorted by eigenvalue with lexicographic tie-break on
    (a, b) so degenerate levels come out in a deterministic order.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    table = rectangle_mode_table(Lx, Ly, Nx, Ny)
    if K > len(table):
        raise ValueError(
            f"K={K} exceeds the {len(table)} modes resolvable on a {Nx}x{Ny} grid"
        )
    chosen = table[:K]
    modes = [(a, b) for (_, a, b) in chosen]
    return EigenBasis(
        grid=rectangle_grid(Lx, Ly, Nx, Ny),
        eigenvalues=np.array([t[0] for t in chosen]),
        functions=cosine_modes((Lx, Ly), (Nx, Ny), modes),
        kind="analytic",
        mode_index=modes,
    )


def _fd_laplacian(grid: Grid) -> sp.csr_matrix:
    """5-point Neumann Laplacian on a polygon mesh via ghost-point reflection.

    Missing neighbors reflect (zero flux), which zeroes their stencil
    contribution; the result is symmetric positive semidefinite with the
    constants in its kernel when the mesh is connected.
    """
    h = grid.spacing[0]
    N = grid.n_nodes
    rows, cols = [], []
    diag = np.zeros(N)
    for axis, offset in ((0, 1), (0, -1), (1, 1), (1, -1)):
        nb = _neighbours(grid, axis, offset)
        has = nb >= 0
        rows.append(np.nonzero(has)[0])
        cols.append(nb[has])
        diag += np.where(has, 1.0 / h**2, 0.0)
    n_off = sum(len(r) for r in rows)
    rows.append(np.arange(N))
    cols.append(np.arange(N))
    vals = np.concatenate([np.full(n_off, -1.0 / h**2), diag])
    return sp.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))


def _deterministic_sign(v: NDArray) -> NDArray:
    """Flip v so its largest-magnitude entry (first on ties) is positive."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def build_fd_basis(domain: Domain, h: float, K: int) -> EigenBasis:
    """Finite-difference Neumann eigenbasis on an axis-aligned polygon.

    Assembles the 5-point reflection Laplacian, verifies the mesh is
    connected (simple zero eigenvalue), and extracts the K smallest
    eigenpairs by shift-invert Lanczos with a deterministic start vector.
    Eigenvalue clusters (relative gap < 1e-8) are re-orthonormalized by QR
    and every mode gets a fixed sign convention, so rebuilding with the
    same arguments reproduces the basis bit for bit.
    """
    grid = polygon_grid(domain, h)
    N = grid.n_nodes
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > N:
        raise ValueError(f"K={K} exceeds the number of mesh cells N={N}")
    A = _fd_laplacian(grid)
    ncomp, _ = csgraph.connected_components(A != 0, directed=False)
    if ncomp != 1:
        raise ValueError(
            f"mesh splits into {ncomp} components; zero eigenvalue would not be simple"
        )
    # Shift by a positive multiple of the identity so the shift-invert
    # factorization is well conditioned near the bottom of the spectrum.
    scale = (np.pi / max(domain.lengths)) ** 2
    if N <= 600 or K > N - 2:
        vals_all, vecs_all = np.linalg.eigh(A.toarray())
        vals, vecs = vals_all[:K] + scale, vecs_all[:, :K]
    else:
        A_shift = (A + scale * sp.identity(N, format="csr")).tocsc()
        v0 = np.ones(N) / np.sqrt(N)
        vals, vecs = spla.eigsh(A_shift, k=K, sigma=0.5 * scale, which="LM", v0=v0)
    lam = vals - scale
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    vecs = vecs[:, order]
    lam = np.maximum(lam, 0.0)
    if lam[0] > 1e-8 * max(1.0, lam[-1]):
        raise ValueError("no zero eigenvalue found; mesh is not a Neumann discretization")
    lam[0] = 0.0
    if K <= lam.size and lam[-1] > grid.resolution_cutoff:
        raise ValueError(
            f"K={K} reaches eigenvalue {lam[-1]:.4g} beyond the resolution cutoff "
            f"{grid.resolution_cutoff:.4g}"
        )
    W = grid.weights
    E = vecs.T.copy()
    # Cluster-wise QR re-orthonormalization in the quadrature inner product.
    scale_top = max(1.0, float(lam[-1]))
    start = 0
    for stop in range(1, K + 1):
        if stop == K or (lam[stop] - lam[stop - 1]) > 1e-8 * scale_top:
            block = E[start:stop]
            M = (block * W) @ block.T
            # Cholesky of the small Gram factor; M is near identity already.
            Lc = np.linalg.cholesky(M)
            E[start:stop] = np.linalg.solve(Lc, block)
            start = stop
    # Exact constant ground mode, then the sign convention everywhere.
    E[0] = domain.volume ** -0.5
    for r in range(1, K):
        E[r] = _deterministic_sign(E[r])
    coh = np.std(vecs[:, 0]) / abs(np.mean(vecs[:, 0]))
    if coh > 1e-6:
        raise ValueError(f"ground mode is not constant (coefficient of variation {coh:.2e})")
    return EigenBasis(
        grid=grid,
        eigenvalues=lam,
        functions=E,
        kind="numeric",
        mode_index=list(range(K)),
    )


def _mode_gradients(basis: EigenBasis) -> NDArray:
    """Per-axis derivatives of every mode: exact for analytic, FD for numeric."""
    grid = basis.grid
    if basis.kind != "analytic":
        return np.ascontiguousarray(fd_gradient(basis.functions.T, grid).transpose(0, 2, 1))
    if grid.domain.kind not in ("interval", "rectangle"):
        raise ValueError("analytic gradients are only defined on intervals/rectangles")
    return cosine_modes(grid.domain.lengths, grid.shape, basis.mode_index, derivatives=True)


def fd_gradient(values: NDArray, grid: Grid) -> NDArray:
    """(n, N) finite-difference gradient on a structured or polygon mesh;
    (n, N, S) for an (N, S) stack of node values.

    Centered second-order differences in the interior; one-sided
    second-order stencils where a neighbor is missing (falling back to
    first-order, then zero, on very thin features).
    """
    if grid.index is None:
        raise ValueError("finite-difference gradient needs a structured grid index")
    v = np.asarray(values)
    out = np.zeros((grid.domain.n,) + v.shape)
    for axis, h in enumerate(grid.spacing):
        nb = {d: _neighbours(grid, axis, d) for d in (1, -1, 2, -2)}
        ip, im, ipp, imm = (nb[d] >= 0 for d in (1, -1, 2, -2))
        g = out[axis]
        c = ip & im
        g[c] = (v[nb[1][c]] - v[nb[-1][c]]) / (2 * h)
        f2, f1 = ip & ~im & ipp, ip & ~im & ~ipp
        g[f2] = (-3 * v[f2] + 4 * v[nb[1][f2]] - v[nb[2][f2]]) / (2 * h)
        g[f1] = (v[nb[1][f1]] - v[f1]) / h
        b2, b1 = ~ip & im & imm, ~ip & im & ~imm
        g[b2] = (3 * v[b2] - 4 * v[nb[-1][b2]] + v[nb[-2][b2]]) / (2 * h)
        g[b1] = (v[b1] - v[nb[-1][b1]]) / h
    return out


# ---------------------------------------------------------------------------
# Quadrature L^p norms and the Weyl law


def lp_columns(F: NDArray, w: NDArray, p: float) -> NDArray:
    """Quadrature L^p norm (w @ |F|^p)^(1/p) of every column of F (N, S);
    p = inf gives the max.  Rejects every p that is not >= 1, NaN and -inf
    included."""
    if not p >= 1:
        raise ValueError(f"p={p} is not a norm exponent (need p >= 1)")
    if np.isinf(p):
        return np.max(np.abs(F), axis=0)
    A = np.abs(F).astype(float, copy=False)
    A **= p  # in place: one (N, S) temporary
    return (w @ A) ** (1.0 / p)


def lp_norm(f, p: float) -> float:
    """Quadrature L^p norm of a GridFunction-like f (attributes .values and
    .grid): the one-column case of lp_columns."""
    return float(lp_columns(np.asarray(f.values)[:, None], f.grid.weights, p)[0])


def weyl_eigenvalue_estimate(domain: Domain, k: NDArray) -> NDArray:
    """Inverse of the leading-order Weyl count: estimated lambda_k.

    Used to estimate symbol tails over unresolved modes.  Exact on the
    interval; in 2-D the Neumann boundary term raises the count, so it
    overshoots (pi x pi square: lambda_50 = 52, estimate 62.4) and the
    tails built on it are estimates, not bounds (ROADMAP item 3).
    """
    k = np.asarray(k, dtype=float)
    if domain.n == 1:
        L = domain.lengths[0]
        return ((k - 1) * np.pi / L) ** 2
    return 4 * np.pi * (k - 1) / domain.volume


# ---------------------------------------------------------------------------
# Serialization (bit-exact round trip)

BASIS_FORMAT = "nbesov-eigenbasis/2"


def _encode_array(a: NDArray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> NDArray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype=np.dtype(d["dtype"])).reshape(d["shape"]).copy()


def _basis_from_payload(payload: dict, eigenvalues=None, functions=None) -> EigenBasis:
    """Rebuild the basis a save_basis payload describes: an analytic one by
    its builder, a numeric one from the given (else the stored) eigenpairs
    on polygon_grid(domain, spacing), checked by EigenBasis.validate()."""
    d, K, kind = payload["domain"], payload["K"], payload["kind"]
    lengths = tuple(d["lengths"])
    dom = Domain(kind=d["kind"], n=len(lengths), lengths=lengths, volume=d["volume"],
                 cells=tuple(tuple(c) for c in d["cells"]))
    if kind == "analytic" and dom.kind == "interval" and len(payload["shape"]) == 1:
        basis = build_interval_basis(lengths[0], K, N=payload["shape"][0])
    elif kind == "analytic" and dom.kind == "rectangle" and len(payload["shape"]) == 2:
        basis = build_rectangle_basis(*lengths, K, *payload["shape"])
    elif kind == "numeric":
        if eigenvalues is None:
            eigenvalues = _decode_array(payload["eigenvalues"])
            functions = _decode_array(payload["functions"])
        basis = EigenBasis(grid=polygon_grid(dom, payload["spacing"]), eigenvalues=eigenvalues,
                           functions=functions, kind=kind, mode_index=list(range(K)))
        basis.validate()
    else:
        raise ValueError(f"no {kind} eigenbasis on a {dom.kind} grid of shape "
                         f"{payload.get('shape')}")
    if basis.domain != dom or basis.K != K:
        raise ValueError(f"the rebuilt basis has K={basis.K} on {basis.domain}, "
                         f"not K={K} on {dom}")
    return basis


def _same_bits(a, b) -> bool:
    return a is b or (a is not None and b is not None and a.dtype == b.dtype
                      and a.shape == b.shape and a.tobytes() == b.tobytes())


def save_basis(basis: EigenBasis, path: str) -> None:
    """Write a self-describing JSON file of format BASIS_FORMAT.

    An analytic file holds only its builder's arguments (domain, grid shape,
    K); a numeric file holds the mesh spacing and the eigenvalues and
    functions as raw bytes in base64.  Raises ValueError, writing nothing,
    unless load_basis would return this basis bit for bit (e.g. for an
    analytic basis on a hand-made grid)."""
    dom, grid = basis.domain, basis.grid
    payload = {
        "format": BASIS_FORMAT,
        "kind": basis.kind,
        "K": basis.K,
        "domain": {
            "kind": dom.kind,
            "lengths": list(dom.lengths),
            "volume": dom.volume,
            "cells": [list(c) for c in dom.cells],
        },
    }
    if basis.kind == "numeric":
        payload["spacing"] = grid.spacing[0]
        payload["eigenvalues"] = _encode_array(basis.eigenvalues)
        payload["functions"] = _encode_array(basis.functions)
    else:
        payload["shape"] = list(grid.shape or ())
    back = _basis_from_payload(payload, basis.eigenvalues, basis.functions)
    if not (back.kind == basis.kind and back.mode_index == basis.mode_index
            and back.domain == dom and back.grid.spacing == grid.spacing
            and back.grid.shape == grid.shape
            and all(_same_bits(x, y) for x, y in (
                (back.eigenvalues, basis.eigenvalues), (back.functions, basis.functions),
                (back.grid.points, grid.points), (back.grid.weights, grid.weights),
                (back.grid.index, grid.index)))):
        raise ValueError(f"{basis.kind} basis on {grid.grid_id()} is not what its builder "
                         "makes from the stored arguments, so it cannot be saved")
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_basis(path: str) -> EigenBasis:
    """Read a save_basis file: rebuild an analytic basis from its builder's
    arguments, and validate a numeric one's stored eigenpairs."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != BASIS_FORMAT:
            raise ValueError(f"not an {BASIS_FORMAT} file (format {fmt!r}); "
                             "rebuild it with nbesov basis --out")
        return _basis_from_payload(payload)
    except KeyError as exc:
        raise ValueError(f"{path}: eigenbasis file lacks the field {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
