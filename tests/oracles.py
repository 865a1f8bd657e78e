"""Independent reference implementations used only by the tests.

Everything here works with explicit dense operators and
scaling-and-squaring matrix exponentials, deliberately avoiding the
package's spectral-decomposition evolution and branch-tree reuse, so
agreement between the two paths is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm

from dechist.histories import DecoherenceFunctional, decode_history


def propagator(h: np.ndarray, dt: float) -> np.ndarray:
    return expm(-1j * np.asarray(h) * dt)


def range_projectors(ranges) -> list[np.ndarray]:
    dim = ranges[-1][1]
    projs = []
    for start, stop in ranges:
        p = np.zeros((dim, dim))
        idx = np.arange(start, stop)
        p[idx, idx] = 1.0
        projs.append(p)
    return projs


def rotated_projectors(ranges, seed) -> list[np.ndarray]:
    """Dense projectors Q[:, a:b] Q[:, a:b]^T onto blocks of a random basis.

    Q is the orthogonal factor of a seeded Gaussian matrix, so the
    projectors are complete and mutually orthogonal but commute with
    neither the band masks nor the Hamiltonian.
    """
    dim = ranges[-1][1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return [q[:, start:stop] @ q[:, start:stop].T for start, stop in ranges]


def chain_operator(h, projectors, times, labels) -> np.ndarray:
    """C(x) = Pi_{x_n} U(t_n, t_n-1) ... Pi_{x_1} U(t_1, t_0) Pi_{x_0}."""
    op = projectors[labels[0]].astype(complex)
    for k in range(1, len(labels)):
        u = propagator(h, times[k] - times[k - 1])
        op = projectors[labels[k]] @ u @ op
    return op


def branches_by_chains(h, projectors, times, psi0) -> np.ndarray:
    """Every branch C(x) psi0, row x the base-3 code of x (earliest label
    least significant)."""
    length = len(times)
    branches = np.zeros((3**length, len(psi0)), dtype=complex)
    for labels in itertools.product(range(3), repeat=length):
        code = sum(x * 3**k for k, x in enumerate(labels))
        branches[code] = chain_operator(h, projectors, times, labels) @ psi0
    return branches


def df_by_chains(h, projectors, times, psi0) -> np.ndarray:
    """Full decoherence functional from explicit operator chains.

    Entry (x, y) = <psi(y)|psi(x)> with histories encoded base-3,
    earliest label least significant.
    """
    branches = branches_by_chains(h, projectors, times, psi0)
    n = len(branches)
    out = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            out[x, y] = np.vdot(branches[y], branches[x])
    return out


def functional_by_chains(h, projectors, grid, psi0) -> DecoherenceFunctional:
    """df_by_chains on the grid's times, kept as its three final-label blocks.

    The entries that mix final labels are left out, as the package
    leaves them out; for complete orthogonal projectors they vanish.
    """
    entries = df_by_chains(h, projectors, grid.times, psi0)
    b = len(entries) // 3
    blocks = np.einsum("ijik->ijk", entries.reshape(3, b, 3, b))
    return DecoherenceFunctional(blocks=np.ascontiguousarray(blocks), grid=grid)


def leaves(final, ranges) -> np.ndarray:
    """Band slices of the rows of a branch-tree level, label-major.

    Row h + x * n of the (3n, D) result is row h of the (n, D) level
    masked to ranges[x], zero elsewhere.  For the last level of one
    start these are all 3^L leaves, row = encoded history.
    """
    final = np.asarray(final, dtype=complex)
    out = np.zeros((len(ranges),) + final.shape, dtype=complex)
    for x, (start, stop) in enumerate(ranges):
        out[x, :, start:stop] = final[:, start:stop]
    return out.reshape(-1, final.shape[-1])


def marginal_by_loops(entries, length, kept) -> np.ndarray:
    """Functional over the kept times by an explicit double loop over (x, y).

    Each full entry (x, y) is added to the reduced entry whose ket and
    bra codes are the base-3 codes of the labels of x and y at the kept
    times, with kept[0] least significant.
    """
    n = 3**length
    reduced = []
    for h in range(n):
        labels = decode_history(h, length)
        reduced.append(sum(labels[k] * 3**pos for pos, k in enumerate(kept)))
    out = np.zeros((3 ** len(kept), 3 ** len(kept)), dtype=complex)
    for x in range(n):
        for y in range(n):
            out[reduced[x], reduced[y]] += entries[x, y]
    return out


def epsilon_pair_by_definition(entries, x, y) -> float:
    """|entry(x, y)| over the geometric mean of the two branch weights.

    Zero when either weight is below 1e-300 (a dead branch).
    """
    wx, wy = entries[x, x].real, entries[y, y].real
    if wx < 1e-300 or wy < 1e-300:
        return 0.0
    return float(abs(entries[x, y]) / np.sqrt(wx * wy))


def epsilon_by_distance_by_loops(entries, length) -> dict:
    """{distance: (mean epsilon, pair count, dead pairs)} by a loop over code pairs.

    Ordered pairs x != y with equal final labels are binned by the
    number of grid times at which their labels differ.  A pair in which
    either weight is below 1e-300 is dead: it counts as zero in the mean
    and is tallied as dead.
    """
    n = 3**length
    labels = [decode_history(h, length) for h in range(n)]
    weights = [entries[h, h].real for h in range(n)]
    bins = {d: [0.0, 0, 0] for d in range(1, length)}
    for x in range(n):
        for y in range(n):
            if x == y or labels[x][-1] != labels[y][-1]:
                continue
            tally = bins[sum(a != b for a, b in zip(labels[x], labels[y]))]
            tally[1] += 1
            if weights[x] < 1e-300 or weights[y] < 1e-300:
                tally[2] += 1
            else:
                tally[0] += abs(entries[x, y]) / np.sqrt(weights[x] * weights[y])
    return {d: (s / c if c else 0.0, c, dead) for d, (s, c, dead) in bins.items()}


def arrow_by_loops(entries, length, volumes) -> tuple[float, float, float]:
    """(p_forward, p_noarrow, p_backward) by a loop over history codes.

    Each step x_k -> x_k+1 scores +1 when the band volume grows and -1
    when it shrinks; a history's weight goes to the forward, no-arrow or
    backward total by the sign of its net score, added in code order.
    """
    totals = [0.0, 0.0, 0.0]
    for h in range(3**length):
        labels = decode_history(h, length)
        score = 0
        for a, b in zip(labels, labels[1:]):
            if volumes[b] > volumes[a]:
                score += 1
            elif volumes[b] < volumes[a]:
                score -= 1
        slot = 0 if score > 0 else (2 if score < 0 else 1)
        totals[slot] += entries[h, h].real
    return tuple(totals)


def born_probability_subset(h, projectors, times, psi0, kept, labels) -> float:
    """p(z) by inserting projectors only at the kept times.

    kept is a sorted tuple of grid indices including the last one;
    labels gives one macrostate per kept time.
    """
    psi = np.asarray(psi0, dtype=complex)
    t_prev = times[0]
    for idx, label in zip(kept, labels):
        psi = propagator(h, times[idx] - t_prev) @ psi
        psi = projectors[label] @ psi
        t_prev = times[idx]
    return float(np.vdot(psi, psi).real)


def subset_probabilities(df, kept) -> tuple[np.ndarray, np.ndarray]:
    """Born and classical probabilities on one time subset, by definition.

    One einsum over the functional per subset: Born ties the ket and bra
    labels of every kept time and sums those of the dropped times
    independently; classical sums the branch weights over the dropped
    times.  Both are indexed by the reduced base-3 code, kept[0] least
    significant.  The subset must contain the final time.
    """
    n = df.length - 1
    kept = tuple(sorted(set(int(k) for k in kept)))
    if not kept or kept[0] < 0 or kept[-1] != n:
        raise ValueError(f"t_subset {kept} must contain the final time index")
    # Axis 0 holds the final label, ket label k axis n-k, bra label k axis 2n-k.
    axes = list(range(2 * n + 1))
    for k in kept[:-1]:
        axes[2 * n - k] = n - k
    out = [n - k for k in reversed(kept)]
    born = np.einsum(df.blocks.reshape((3,) * (2 * n + 1)), axes, out).reshape(-1)
    weights = df.diagonal().reshape((3,) * (n + 1))
    classical = np.einsum(weights, list(range(n + 1)), out).reshape(-1)
    return born.real, classical


def trace_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def delta_by_subsets(df) -> dict[int, float]:
    """{bitmask: trace distance} over every subset holding the final time."""
    n = df.length - 1
    out = {}
    for prefix_bits in range(2**n):
        kept = [k for k in range(n) if prefix_bits >> k & 1] + [n]
        out[prefix_bits | 1 << n] = trace_distance(*subset_probabilities(df, kept))
    return out
