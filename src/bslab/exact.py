"""Exact stationary analysis of the embedded chain on small graphs.

States are integers in [0, 2^n) with bit x holding the fitness of vertex
x.  The embedded kernel averages, over the uniformly chosen zero vertex,
the product resampling law of its closed neighbourhood; self-loops are
kept (they cancel in the generator, so they do not affect either flavor).
The continuous-time stationary law reweights the embedded one by the
expected holding time 1/r(state), where r is the number of zeros, or n at
all-ones under the `resample` semantics.

`build_kernel` assembles the kernel in row blocks of a fixed number of
rows, at most 393,216 slots (_BLOCK_ENTRIES), where every row has one slot
per resample outcome of every site.  Each block is one in-row sort of
unique (column, slot) keys, so each column's duplicate entries are summed
in site order whatever the sort algorithm; the blocks of a larger kernel
are built on worker threads of this process.

`stationary` has one route per kernel size, both in this process.  A
kernel of at least 2^14 states (_LUMP_MIN_STATES) is lumped onto the
state orbits of the graph's automorphism group, which the dynamics
commute with (strong lumpability; Kemeny & Snell, Finite Markov Chains,
1960, Sec. 6.3): the orbit chain is solved by GMRES (Saad & Schultz,
SIAM J. Sci. Stat. Comput. 7, 1986) and lifted back, and its `residual`
is the true l1 residual of the returned law on the whole kernel.  A
trivial group gives one orbit per state, and the kernel is its own
lumping.  A smaller kernel runs power iteration as a row-gather product
on P^T, and its `residual` is a stopping criterion, not an error bound.

The time-t checks never form the dense 2^n x 2^n P_t: they apply it to a
set's two indicator columns, by t sparse kernel products (embedded) or by
`expm_multiply` on t Q, Q = diag(r)(P - I) (continuous; Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 2011), so memory stays O(nnz + 2^n).

`scipy.sparse` is slow to import (it loads scipy's array-API layer), so
`import bslab` does not pay for it: the functions that build, solve or
apply a kernel import it where they run, and `build_kernel` imports its
thread pool only for a kernel of several blocks.
"""
from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import ALLONES_SEMANTICS, FLAVORS, ModelParams
from .graphs import Graph, automorphisms, closed_neighbourhood

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "TransitionModel",
    "StationaryDist",
    "Marginals",
    "build_kernel",
    "stationary",
    "marginals",
    "balance_residual",
    "escape_entry_check",
    "EscapeEntryReport",
    "tail_geometric_fit",
    "GeomTailFit",
]

# stopping tolerance in l1: on the last power step's change (embedded), and
# on that change over sum(pi/r), the flux residual of the reweighted law
# (continuous)
_STATIONARY_TOL = 1e-10
_STATIONARY_MAX_ITER = 2_000_000
_MAX_VERTICES = 30  # states and kernel indices are int32
# memory guard per COO entry: 12 B of kernel (int32 index, float64 value),
# another 12 B for the transpose that `stationary`'s power loop makes (the
# orbit route copies at most the representatives' rows, and nothing on a
# trivial group), and 4 B of headroom for the build's blocks in flight, so
# no kernel refused by the whole-matrix build (16 B of COO + 12 B of CSR
# per entry) is accepted.  The threaded build holds the kernel's 12 B per
# entry, one block's keys and decoded entries on each worker, and at most
# two block CSRs for each worker plus the one being copied; none of these
# grows with the kernel
_BYTES_PER_ENTRY = 28
# most slots in one row block; a block is max(1, _BLOCK_ENTRIES // slots
# per row) rows.  At 393,216 slots (1.5 MiB of int32 keys, about 196k
# entries), cycle:12, with 96 slots in each of 4096 rows, is the largest
# cycle built as one block, with no thread.  On a 2-vCPU Xeon guest,
# cycle:16 then torus2d:4x4 built in 0.04-0.05 s and 0.15-0.16 s either
# way at 393,216 and at 2^19 slots, but the process peaked at 242-244 MB
# against 247-253 MB (and 273-278 MB at 2^20): freed block arrays stay in
# the worker threads' malloc arenas, in proportion to the block size
_BLOCK_ENTRIES = 3 << 17
_TAIL_FLOOR = 1e-14  # smallest tail mass used by the geometric fit
# smallest kernel, in states, that `stationary` solves on the state orbits
# of the graph's automorphism group.  On a 2-vCPU Xeon guest the lumped
# solve of cycle:14 took 0.02-0.07 s against the power loop's 0.2 s,
# cycle:16 0.04 s against 1.0-1.3 s and path:16 0.3-0.4 s against
# 1.3-2.1 s.  On regular:16:4 (a trivial group, one orbit per state) it
# took 0.8-0.9 s against 1.8-1.9 s at p = 0.3, but 1.8-2.2 s against
# 1.8-2.0 s at p = 0.05; smaller kernels keep the power loop's bits
_LUMP_MIN_STATES = 1 << 14
# GMRES passes on the lumped system, each on the residual the previous
# ones left, before `stationary` gives up on the tolerance
_LUMP_PASSES = 4


@dataclass(frozen=True)
class TransitionModel:
    graph: Graph
    params: ModelParams
    allones: str
    kernel: sp.csr_matrix
    exit_rates: np.ndarray


def _nbhd_patterns(g: Graph, params: ModelParams, v: int):
    """All resample outcomes of v's closed neighbourhood.

    Returns (clear_mask, targets, weights): state bits to clear, the OR of
    the proposed one-bits per outcome, and the outcome probabilities.
    """
    nbhd = closed_neighbourhood(g, v)
    k = len(nbhd)
    clear = g.closed_nbhd_masks()[v]
    targets = np.zeros(1 << k, dtype=np.int32)
    weights = np.ones(1 << k, dtype=np.float64)
    for i, u in enumerate(nbhd):
        hi = (np.arange(1 << k) >> i) & 1
        targets |= hi.astype(np.int32) << u
        weights *= np.where(hi, params.p, params.q)
    return clear, targets, weights


def _kernel_entries(g: Graph, allones: str) -> int:
    """COO entries of the kernel, from vertex degrees alone: each site v
    contributes 2^|N[v]| outcomes for each of the 2^(n-1) states with v zero,
    and the all-ones row its own outcomes (resample) or one self-loop."""
    n = g.num_vertices
    outcomes = [1 << len(closed_neighbourhood(g, v)) for v in range(n)]
    ones_row = sum(outcomes) if allones == "resample" else 1
    return (1 << (n - 1)) * sum(outcomes) + ones_row


def _block_csr(sites, weights, zero_counts, a: int, b: int, allones: str) -> sp.csr_matrix:
    """Rows [a, b) of the kernel as a (b - a) x 2^n CSR matrix.

    Every row has the same slots: site v's 2^|N[v]| resample outcomes,
    laid out site by site.  `sites` holds each site's clear mask and slot
    count, and each slot's key, target << shift | slot; `weights` holds
    the slots' probabilities.  A row fills the slots of its zero sites
    with the key column << shift | slot, and its other slots with the
    dtype maximum.  One in-row sort of these unique keys puts the row in
    column order, each column's duplicates in site order whatever the
    sort algorithm, and `sum_duplicates` adds them left to right.  An
    entry is its slot's weight times 1 / zero count; the all-ones row, the
    only row with no zero, resamples every site with weight / n
    (resample) or is one self-loop of 1 (frozen).
    """
    import scipy.sparse as sp  # slow to import; only the kernel paths need it

    clears, sizes, slot_keys = sites
    n, size, width = len(sizes), len(zero_counts), len(weights)
    shift = (width - 1).bit_length()
    empty = np.iinfo(slot_keys.dtype).max
    block = np.arange(a, b, dtype=slot_keys.dtype)[:, None]
    # one bits, as (rows, sites): the sites whose slots the row leaves empty
    ones = (block >> np.arange(n, dtype=block.dtype)) & 1
    if b == size and allones == "resample":
        ones[-1] = 0
    counts = ((1 - ones) @ sizes).astype(np.int32)
    # the empty key's low bits are all ones, so OR-ing it in empties a slot
    keys = np.repeat(((block & ~clears) << shift) | (ones * empty), sizes, axis=1)
    keys |= slot_keys
    keys.sort(axis=1)
    kept = keys[keys != empty]
    del keys
    data = weights[kept & ((1 << shift) - 1)]
    with_zero = b - a - (b == size)
    share = np.repeat(1.0 / zero_counts[a : a + with_zero], counts[:with_zero])
    data[: len(share)] *= share
    data[len(share) :] /= n
    kept >>= shift
    indices = kept.astype(np.int32, copy=False)
    if b == size and allones == "frozen":
        indices, data = np.append(indices, np.int32(size - 1)), np.append(data, 1.0)
        counts[-1] = 1
    indptr = np.zeros(b - a + 1, np.int32)
    np.cumsum(counts, out=indptr[1:])
    part = _csr((b - a, size), indptr, indices, data)
    # sorted, but not yet summed: sum_duplicates then neither checks nor sorts
    part.has_canonical_format = False
    part.has_sorted_indices = True
    part.sum_duplicates()
    return part


def _append(out, nnz: int, row: int, indptr, indices, data) -> int:
    """Copy CSR rows (indptr, indices, data) into the CSR arrays `out`, as
    their rows from `row` on and after their first nnz entries; returns
    the nonzeros then written."""
    out_indptr, out_indices, out_data = out
    end = nnz + int(indptr[-1])
    out_indices[nnz:end] = indices[: end - nnz]
    out_data[nnz:end] = data[: end - nnz]
    np.add(indptr[1:], nnz, out=out_indptr[row + 1 : row + len(indptr)])
    return end


def _csr(shape, indptr, indices, data) -> sp.csr_matrix:
    """A CSR matrix on these arrays, without a copy.

    The arrays are set after construction: scipy's format check copies
    any index or data view that holds less than half of its base array.
    """
    import scipy.sparse as sp  # slow to import; only the kernel paths need it

    matrix = sp.csr_matrix(shape, dtype=data.dtype)
    matrix.indptr = indptr
    matrix.indices = indices
    matrix.data = data
    return matrix


def build_kernel(
    g: Graph, params: ModelParams, allones: str = "resample", budget: int = 20
) -> TransitionModel:
    """Assemble the sparse embedded kernel for all 2^n states.

    Every row has the same slots: one per resample outcome of each site,
    laid out site by site.  Rows are assembled in blocks of
    max(1, _BLOCK_ENTRIES // slots per row) rows, each by `_block_csr`: a
    key column << shift | slot in each slot of a zero site (the all-ones
    row resamples every site), one `sort` of each row's unique keys, and
    a sum of each column's duplicates left to right, so in site order.
    The kernel's bits therefore depend on neither the sort algorithm nor
    the block size.  Keys are int32 while n + shift <= 30 and int64 past
    that.  A kernel of one block is that block's CSR.  The blocks of a
    larger kernel are built on min(CPUs in the affinity set, blocks)
    worker threads of this process (numpy's sort and scipy's duplicate
    sum release the GIL), at most two blocks per worker ahead of the
    caller, which copies each finished block into kernel arrays allocated
    once at the COO length, in row order, so the kernel is made of
    private arrays.  An error in a worker is raised by the call, after
    every worker has stopped.  The build refuses to start when 28 B per
    COO entry exceed physical memory: 12 B of kernel, the blocks in
    flight, and another 12 B for the transpose that `stationary`'s power
    loop makes.
    """
    n = g.num_vertices
    if n > budget:
        raise ValueError(f"state space 2^{n} exceeds budget 2^{budget}")
    if n > _MAX_VERTICES:
        raise ValueError(f"states are int32: n = {n} exceeds {_MAX_VERTICES} vertices")
    if allones not in ALLONES_SEMANTICS:
        raise ValueError("allones must be 'resample' or 'frozen'")
    entries = _kernel_entries(g, allones)
    need = entries * _BYTES_PER_ENTRY
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"kernel of {entries} entries needs about {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )
    size = 1 << n
    ones_state = size - 1
    zero_counts = n - np.bitwise_count(np.arange(size, dtype=np.int32))
    clears, targets, weights = zip(*(_nbhd_patterns(g, params, v) for v in range(n)))
    sizes = np.array([len(t) for t in targets])
    width = int(sizes.sum())  # slots per row
    shift = (width - 1).bit_length()
    # a key column << shift | slot stays below the dtype maximum, the empty slot
    dtype = np.int32 if n + shift <= 30 else np.int64
    slot_keys = (np.concatenate(targets).astype(dtype) << shift) | np.arange(width, dtype=dtype)
    sites = (np.array(clears, dtype), sizes, slot_keys)
    weights = np.concatenate(weights)
    rows = max(1, _BLOCK_ENTRIES // width)
    blocks = [(a, min(a + rows, size)) for a in range(0, size, rows)]

    if len(blocks) == 1:
        kernel = _block_csr(sites, weights, zero_counts, 0, size, allones)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a kernel of several blocks needs it

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(cpus, len(blocks))
        idx = np.int32 if entries <= np.iinfo(np.int32).max else np.int64
        out = (np.zeros(size + 1, idx), np.empty(entries, idx), np.empty(entries, np.float64))
        nnz = 0
        pool = ThreadPoolExecutor(workers)

        def submit(a: int, b: int):
            return pool.submit(_block_csr, sites, weights, zero_counts, a, b, allones)

        try:
            # blocks are built at most two per worker ahead of the copy, so
            # that finished block CSRs cannot pile up
            ahead = 2 * workers
            pending = deque(submit(a, b) for a, b in blocks[:ahead])
            for i, (a, _) in enumerate(blocks):
                part = pending.popleft().result()
                if i + ahead < len(blocks):
                    pending.append(submit(*blocks[i + ahead]))
                nnz = _append(out, nnz, a, part.indptr, part.indices, part.data)
                del part  # before a later block's CSR is allocated
        finally:
            pool.shutdown(cancel_futures=True)
        kernel = _csr((size, size), out[0], out[1][:nnz], out[2][:nnz])
        kernel.has_canonical_format = True
    exit_rates = zero_counts.astype(np.float64)
    exit_rates[ones_state] = float(n) if allones == "resample" else 0.0
    return TransitionModel(g, params, allones, kernel, exit_rates)


@dataclass(frozen=True)
class StationaryDist:
    probs: np.ndarray
    flavor: str
    residual: float


def _orbit_labels(n: int, gens) -> np.ndarray:
    """Each state's smallest orbit-mate under the group that the vertex
    permutations `gens` generate, as an int32 array over all 2^n states.

    A state's image under a permutation is read from one 256-entry table
    per byte of the state.  Each pass lowers every label to the label of
    its image under each generator in turn, then jumps every label to its
    own label; the passes stop at the first that changes nothing.  At that
    fixpoint a label is no larger than its image's under any generator, so
    it is constant along each generator's cycles and hence on each orbit
    of the generated group, where the orbit's minimum keeps its own.
    """
    states = np.arange(1 << n, dtype=np.int32)
    width = (n + 7) // 8
    chunks = [(states >> (8 * b)) & 0xFF for b in range(width)]
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tables = []
    for perm in gens:
        moved = np.zeros(8 * width, dtype=np.int64)
        moved[:n] = np.left_shift(1, np.asarray(perm, dtype=np.int64))
        tables.append([(bits @ moved[8 * b : 8 * b + 8]).astype(np.int32) for b in range(width)])
    labels = states
    while True:
        before = labels.copy()
        for table in tables:
            image = table[0][chunks[0]]
            for part, chunk in zip(table[1:], chunks[1:]):
                image |= part[chunk]
            np.minimum(labels, labels[image], out=labels)
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def _lumped_stationary(tm: TransitionModel, gens, flavor: str) -> StationaryDist:
    """The stationary law from the chain lumped onto the state orbits of
    the group `gens` generates; see `stationary`."""
    import scipy.sparse as sp  # slow to import; only the kernel paths need it
    from scipy.sparse.linalg import LinearOperator, gmres  # slow to import; only this path needs it

    labels = _orbit_labels(tm.graph.num_vertices, gens)
    reps, orbit = np.unique(labels, return_inverse=True)
    m = len(reps)
    sizes = np.bincount(orbit, minlength=m)
    if m == len(labels):
        # one orbit per state: the kernel is its own lumping, used uncopied
        lumped = tm.kernel
    else:
        # row O of the lumped kernel: a representative's row, with each column
        # summed into its orbit's; the same for every state of O (strong lumpability)
        rows = tm.kernel[reps]
        lumped = sp.csr_matrix((rows.data, orbit[rows.indices], rows.indptr), shape=(m, m))
        lumped.sum_duplicates()
    lumped_t = lumped.T
    # (I - P^T + 1 1^T / m) y = 1 has m times the lumped law as its only
    # solution.  Scaled so, y's entries are near 1 like the right-hand
    # side's, and GMRES's relative tolerance bounds the l1 residual of the
    # law by about 1e-14; unscaled (1 1^T, solving for the law itself) it
    # bounded that by m * 1e-14, and path:16 (m = 32896) stopped at 2e-10
    system = LinearOperator((m, m), matvec=lambda y: y - lumped_t @ y + y.sum() / m, dtype=np.float64)
    ones = np.ones(m)
    kt = tm.kernel.T  # a CSC view: no transpose is copied
    y = np.zeros(m)
    for _ in range(_LUMP_PASSES):
        # at most 20 restart cycles: a pass that stalls near rounding
        # level otherwise runs 10 m cycles before it returns
        step, _ = gmres(system, ones - system @ y, restart=60, rtol=1e-14, atol=0.0, maxiter=20)
        y = y + step
        pi = (np.maximum(y, 0.0) / sizes)[orbit]
        total = float(pi.sum())
        if not (np.isfinite(total) and total > 0.0):
            continue
        pi /= total
        if flavor == "continuous":
            weights = pi / tm.exit_rates
            pi = weights / weights.sum()
            law = pi * tm.exit_rates
        else:
            law = pi
        residual = float(np.abs(kt @ law - law).sum())
        if residual < _STATIONARY_TOL:
            return StationaryDist(pi, flavor, residual)
    raise RuntimeError(f"lumped solve did not reach tol={_STATIONARY_TOL} in {_LUMP_PASSES} passes")


def stationary(tm: TransitionModel, flavor: str = "embedded") -> StationaryDist:
    """Stationary law, by a lumped linear solve or by sparse power iteration.

    flavor="embedded" solves pi P = pi for the jump chain; flavor
    "continuous" reweights that law by the expected holding times 1/r.
    Both routes run in this process.

    Lumped route: every kernel of at least 2^14 states (_LUMP_MIN_STATES).
    States are labelled by their orbits under the graph's automorphism
    group (`graphs.automorphisms`), the lumped kernel is a representative's
    row per orbit with its columns summed by orbit (P itself, uncopied,
    when the group is trivial and every orbit is one state), and
    (I - P^T + 1 1^T / m) y = 1 over the m orbits is solved by GMRES
    (restart 60, rtol 1e-14).  The law is y lifted to the states,
    pi(s) = y(O(s)) / |O(s)|, normalised, and reweighted by 1/r for the
    continuous flavor (exit rates are constant on orbits).  `residual` is
    the true l1 residual on the whole kernel, |P^T pi - pi|_1 (embedded)
    or |P^T f - f|_1 on the flux f = pi r (continuous), taken on P's CSC
    view without a copied transpose.  Up to four GMRES passes (each on the
    residual the passes before it left) run until that residual is below
    1e-10; otherwise the call raises RuntimeError.

    Power route: every smaller kernel.  For flavor="embedded" `residual` is
    the l1 change of the last power step, which stops the iteration below
    1e-10: a stopping criterion, not an error bound (at p = 0.3 the true l1
    error measured 9x the residual on cycle:10).  flavor="continuous"
    reports the l1 flux residual |(pi r) P - pi r|_1 of the reweighted
    law, after iterating until the embedded residual over sum(pi/r) is
    below 1e-10.  Each step is a row-gather product on P^T, transposed
    once per call.
    """
    if flavor not in FLAVORS:
        raise ValueError("flavor must be 'embedded' or 'continuous'")
    size = tm.kernel.shape[0]
    if tm.allones == "frozen":
        pi = np.zeros(size)
        pi[size - 1] = 1.0
        return StationaryDist(pi, flavor, 0.0)
    if size >= _LUMP_MIN_STATES:
        return _lumped_stationary(tm, automorphisms(tm.graph), flavor)
    kt = tm.kernel.T.tocsr()
    pi = np.full(size, 1.0 / size)
    residual = np.inf
    for _ in range(_STATIONARY_MAX_ITER):
        nxt = kt @ pi
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < _STATIONARY_TOL:
            if flavor == "embedded":
                break
            # the reweighted flux residual is residual / sum(pi/r); keep
            # iterating until that, not the embedded residual, meets the tolerance
            if residual / float((pi / tm.exit_rates).sum()) < _STATIONARY_TOL:
                break
    else:
        raise RuntimeError(f"power iteration did not reach tol={_STATIONARY_TOL}")
    if flavor == "continuous":
        weights = pi / tm.exit_rates
        pi = weights / weights.sum()
        flux = pi * tm.exit_rates
        residual = float(np.abs(kt @ flux - flux).sum())
    return StationaryDist(pi, flavor, residual)


@dataclass(frozen=True)
class Marginals:
    vertex_one: np.ndarray
    ones_hist: np.ndarray
    zeros_tail: np.ndarray
    num_vertices: int

    def prob_mean_at_least(self, a: float) -> float:
        """P(average fitness >= a)."""
        thresh = a * self.num_vertices - 1e-12
        js = np.arange(self.num_vertices + 1)
        return float(self.ones_hist[js >= thresh].sum())

    @property
    def expected_zeros(self) -> float:
        js = np.arange(self.num_vertices + 1)
        return float((self.ones_hist * (self.num_vertices - js)).sum())


def marginals(sd: StationaryDist, g: Graph) -> Marginals:
    n = g.num_vertices
    states = np.arange(1 << n, dtype=np.int64)
    vertex_one = np.array(
        [float(sd.probs[((states >> x) & 1) == 1].sum()) for x in range(n)]
    )
    ones = np.bitwise_count(states)
    ones_hist = np.bincount(ones, weights=sd.probs, minlength=n + 1)
    zeros = n - ones
    zeros_tail = np.array(
        [float(sd.probs[zeros > k].sum()) for k in range(n + 1)]
    )
    return Marginals(vertex_one, ones_hist, zeros_tail, n)


def _apply_t(tm: TransitionModel, F: np.ndarray, t: float, flavor: str) -> np.ndarray:
    """P_t F for a vector or a block of columns F, without forming P_t.

    Embedded: t sparse kernel products (t a nonnegative integer).
    Continuous: expm(t Q) F with Q = diag(exit_rates)(P - I).
    """
    F = np.asarray(F, dtype=np.float64)
    if t < 0 or (flavor == "embedded" and t != int(t)):
        raise ValueError("t must be nonnegative, and an integer for the embedded flavor")
    if flavor == "embedded":
        for _ in range(int(t)):
            F = tm.kernel @ F
        return F
    if flavor != "continuous":
        raise ValueError("flavor must be 'embedded' or 'continuous'")
    import scipy.sparse as sp  # slow to import; only the kernel paths need it
    from scipy.sparse.linalg import expm_multiply  # slow to import; only this path needs it

    q = sp.diags(tm.exit_rates) @ (tm.kernel - sp.identity(tm.kernel.shape[0], format="csr"))
    return expm_multiply(float(t) * q, F)


def _state_mask(tm: TransitionModel, a_mask) -> np.ndarray:
    """The state set A as a boolean mask of length 2^n."""
    a_mask = np.asarray(a_mask, dtype=bool)
    size = tm.kernel.shape[0]
    if a_mask.shape != (size,):
        raise ValueError(f"A must be a mask of length 2^n = {size}, got shape {a_mask.shape}")
    return a_mask


def _escape_entry(tm: TransitionModel, a_mask: np.ndarray, t: float, flavor: str):
    """Per state the time-t mass P_t(x, A^c) (escape) and P_t(x, A)
    (entry), from one action on [1_{A^c}, 1_A]."""
    pt = _apply_t(tm, np.column_stack([~a_mask, a_mask]), t, flavor)
    return pt[:, 0], pt[:, 1]


def balance_residual(
    tm: TransitionModel, sd: StationaryDist, a_mask: np.ndarray, t: float, flavor: str
) -> float:
    """|flux out of A - flux into A| under the time-t transition law."""
    a_mask = _state_mask(tm, a_mask)
    escape, entry = _escape_entry(tm, a_mask, t, flavor)
    pi = sd.probs
    out_flux = float(pi[a_mask] @ escape[a_mask])
    in_flux = float(pi[~a_mask] @ entry[~a_mask])
    return abs(out_flux - in_flux)


@dataclass(frozen=True)
class EscapeEntryReport:
    escape_c: float
    entry_eps: float
    pi_a: float
    bound: float
    holds: bool
    vacuous: bool

    def as_json(self) -> dict:
        """JSON-ready dict under the report's canonical field names."""
        return {
            "c": self.escape_c,
            "epsilon": self.entry_eps,
            "bound": self.bound,
            "pi_A": self.pi_a,
            "holds": self.holds,
        }


def escape_entry_check(
    tm: TransitionModel, sd: StationaryDist, a_mask: np.ndarray, t: float, flavor: str
) -> EscapeEntryReport:
    """Escape/entry mass bound: pi(A) < eps/c.

    c is the worst-case time-t escape mass from A, eps the worst-case
    entry mass from outside; c = 0 makes the bound vacuous.
    """
    a_mask = _state_mask(tm, a_mask)
    if not a_mask.any() or a_mask.all():
        raise ValueError("A must be a proper nonempty subset of states")
    escape, entry = _escape_entry(tm, a_mask, t, flavor)
    c = float(escape[a_mask].min())
    eps = float(entry[~a_mask].max())
    pi_a = float(sd.probs[a_mask].sum())
    if c <= 0.0:
        return EscapeEntryReport(c, eps, pi_a, np.inf, False, True)
    bound = eps / c
    return EscapeEntryReport(c, eps, pi_a, bound, pi_a < bound, False)


@dataclass(frozen=True)
class GeomTailFit:
    c1: float
    c2: float
    k_lo: int
    k_hi: int
    rms: float


def tail_geometric_fit(sd: StationaryDist, g: Graph) -> GeomTailFit:
    """Least-squares geometric fit of the zero-count tail.

    Fits log P(#zeros > k) ~ log c1 - c2 k over the ks whose tail mass
    exceeds 1e-14; needs at least three usable points.
    """
    mg = marginals(sd, g)
    tail = mg.zeros_tail
    ks = np.flatnonzero(tail > _TAIL_FLOOR)
    if len(ks) < 3:
        raise ValueError("fewer than three usable tail points")
    y = np.log(tail[ks])
    slope, intercept = np.polyfit(ks, y, 1)
    fit = intercept + slope * ks
    rms = float(np.sqrt(np.mean((fit - y) ** 2)))
    return GeomTailFit(float(np.exp(intercept)), float(-slope), int(ks[0]), int(ks[-1]), rms)
