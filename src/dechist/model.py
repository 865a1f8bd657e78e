"""Random-matrix model of two subsystems exchanging a quantum of heat.

The Hilbert space is a microcanonical shell split into three macrostates
labelled (-, 0, +) with dimensions (V_minus, V_0, V_plus).  The Hamiltonian
is block structured: diagonal blocks carry fixed energy ladders, the
(-,0) and (0,+) blocks carry a weak Gaussian random coupling, and the
(-,+) block vanishes because the exchange is a two-step process.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Regime",
    "Ensemble",
    "Spacing",
    "ModelConfig",
    "CouplingParameters",
    "BlockHamiltonian",
    "Coarsening",
    "MACROSTATE_LABELS",
    "NUM_MACROSTATES",
    "derive_coupling",
    "build_hamiltonian",
    "build_coarsening",
    "derive_seed",
]

MACROSTATE_LABELS = ("-", "0", "+")
NUM_MACROSTATES = 3

# Stream tags so that independent draws (matrix, state, grid) never
# share a generator even for equal integer seeds.
HAMILTONIAN_STREAM = 1
STATE_STREAM = 2
GRID_STREAM = 3


def derive_seed(*parts: int) -> int:
    """Collapse non-negative integer parts into a single 64-bit seed.

    Uses the SeedSequence entropy pool, so distinct tuples give
    statistically independent streams.  Deterministic across runs.
    """
    for p in parts:
        if p < 0:
            raise ValueError(f"seed parts must be non-negative, got {p}")
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


class Regime(enum.Enum):
    WEAK = "weak"
    STRONG = "strong"


class Ensemble(enum.Enum):
    GOE = "goe"
    GUE = "gue"


class Spacing(enum.Enum):
    EQUAL = "equal"
    RANDOM = "random"


@dataclass(frozen=True)
class ModelConfig:
    """Static description of one model realization.

    Parameters
    ----------
    v_minus : int
        Dimension of the '-' macrostate; fixes V_0 = 3 * v_minus,
        V_plus = v_minus and D = 5 * v_minus.
    delta_e : float
        Width of the single-subsystem energy window [0, 2 * delta_e).
    regime : Regime
        WEAK solves the smallness condition for the coupling; STRONG
        multiplies the weak coupling by 10.
    ensemble : Ensemble
        GOE draws real couplings, GUE complex ones (unit variance both).
    diagonal_spacing : Spacing
        EQUAL uses an exact ladder, RANDOM sorted uniform draws.
    hamiltonian_seed : int
        Seed for every random draw entering the matrix.
    smallness_target : float
        Value the weak-coupling smallness parameter is solved to.
    """

    v_minus: int
    delta_e: float = 1.0
    regime: Regime = Regime.WEAK
    ensemble: Ensemble = Ensemble.GOE
    diagonal_spacing: Spacing = Spacing.EQUAL
    hamiltonian_seed: int = 0
    smallness_target: float = 0.01

    def __post_init__(self) -> None:
        if self.v_minus < 1:
            raise ValueError(f"v_minus must be >= 1, got {self.v_minus}")
        if not (self.delta_e > 0 and math.isfinite(self.delta_e)):
            raise ValueError(f"delta_e must be positive and finite, got {self.delta_e}")
        if not (0 < self.smallness_target <= 1):
            raise ValueError(
                f"smallness_target must lie in (0, 1], got {self.smallness_target}"
            )
        if self.hamiltonian_seed < 0:
            raise ValueError("hamiltonian_seed must be non-negative")
        try:  # in-range values can still under- or overflow the scales they set
            c = derive_coupling(self)
            ok = all(0 < x < math.inf for x in (c.lam, c.tau, 2 * self.delta_e))
        except ArithmeticError:
            ok = False
        if not ok:
            raise ValueError(f"delta_e={self.delta_e} and smallness_target="
                             f"{self.smallness_target} give no finite positive lambda,"
                             f" tau and ladder top 2*delta_e at D={self.dimension}"
                             f" ({self.regime.value} regime)")

    @property
    def v_zero(self) -> int:
        return 3 * self.v_minus

    @property
    def v_plus(self) -> int:
        return self.v_minus

    @property
    def volumes(self) -> tuple[int, int, int]:
        return (self.v_minus, self.v_zero, self.v_plus)

    @property
    def dimension(self) -> int:
        return 5 * self.v_minus

    @property
    def block_layout(self) -> tuple[tuple[int, int], ...]:
        """Half-open index ranges of the (-, 0, +) blocks."""
        v = self.v_minus
        return ((0, v), (v, 4 * v), (4 * v, 5 * v))


@dataclass(frozen=True)
class CouplingParameters:
    """Coupling strength and the derived time/consistency scales.

    interaction_strength_right must be large for the exchange dynamics
    to thermalize; interaction_warning flags values below 10.
    """

    lam: float
    tau: float
    interaction_strength_right: float
    interaction_warning: bool


def derive_coupling(config: ModelConfig) -> CouplingParameters:
    """Solve the smallness condition for lambda and derive tau.

    The weak coupling solves (1/V) * (pi * lam * V / (2 * delta_e))^2 =
    smallness_target with V = v_minus = v_plus; the strong regime is ten
    times that.  The relaxation time is tau = delta_e / (4 pi lam^2 V).
    """
    v = config.v_minus
    lam = (2.0 * config.delta_e / math.pi) * math.sqrt(config.smallness_target / v)
    if config.regime is Regime.STRONG:
        lam *= 10.0
    half_bandwidth = math.pi * lam * v / (2.0 * config.delta_e)
    strength_right = 32.0 * half_bandwidth**2
    tau = config.delta_e / (4.0 * math.pi * lam**2 * v)
    return CouplingParameters(
        lam=lam,
        tau=tau,
        interaction_strength_right=strength_right,
        interaction_warning=strength_right < 10.0,
    )


@dataclass(frozen=True)
class BlockHamiltonian:
    """Hermitian block matrix stored as its blocks.

    `diagonal` holds the D diagonal entries; `c_mz` and `c_zp` are the
    (-,0) and (0,+) coupling blocks, whose conjugate transposes fill
    (0,-) and (+,0); the (-,+) corner blocks are zero.
    """

    diagonal: np.ndarray
    c_mz: np.ndarray
    c_zp: np.ndarray
    block_layout: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """A fresh dense array of the matrix, built on every access."""
        d = self.dimension
        h = np.zeros((d, d), dtype=np.result_type(self.c_mz, self.c_zp))
        np.fill_diagonal(h, self.diagonal)
        (m0, m1), (z0, z1), (p0, p1) = self.block_layout
        h[m0:m1, z0:z1] = self.c_mz
        np.conjugate(self.c_mz.T, out=h[z0:z1, m0:m1])
        h[z0:z1, p0:p1] = self.c_zp
        np.conjugate(self.c_zp.T, out=h[p0:p1, z0:z1])
        return h


def _block_energies(config: ModelConfig, size: int, rng: np.random.Generator) -> np.ndarray:
    # Ladder E_k = 2 dE k / V keeps every level inside [0, 2 dE).
    if config.diagonal_spacing is Spacing.EQUAL:
        return 2.0 * config.delta_e * np.arange(size) / size
    return np.sort(rng.uniform(0.0, 2.0 * config.delta_e, size=size))


def _coupling_block(
    config: ModelConfig, shape: tuple[int, int], lam: float, rng: np.random.Generator
) -> np.ndarray:
    """lam times a Gaussian block, scaled in place."""
    if config.ensemble is Ensemble.GOE:
        block = rng.standard_normal(shape)
    else:
        # Unit total variance: real and imaginary parts carry 1/2 each.
        re, im = rng.standard_normal((2, *shape))
        block = np.multiply(1j, im)
        np.add(re, block, out=block)
        np.divide(block, math.sqrt(2.0), out=block)
    return np.multiply(lam, block, out=block)


def build_hamiltonian(config: ModelConfig) -> BlockHamiltonian:
    """Draw the block random matrix for one realization.

    Diagonal blocks are energy ladders with the '-' and '+' blocks
    identical entrywise.  Off-diagonal (-,0) and (0,+) blocks are
    lambda-scaled Gaussian matrices; their conjugate transposes fill
    (0,-) and (+,0); the (-,+) corner blocks stay exactly zero.
    """
    rng = np.random.default_rng(config.hamiltonian_seed)
    lam = derive_coupling(config).lam
    e_minus = _block_energies(config, config.v_minus, rng)
    e_zero = _block_energies(config, config.v_zero, rng)
    # Same microcanonical ladder on both sides of the exchange.
    diagonal = np.concatenate([e_minus, e_zero, e_minus])
    c_mz = _coupling_block(config, (config.v_minus, config.v_zero), lam, rng)
    c_zp = _coupling_block(config, (config.v_zero, config.v_plus), lam, rng)
    return BlockHamiltonian(diagonal, c_mz, c_zp, config.block_layout)


@dataclass(frozen=True)
class Coarsening:
    """Three-outcome coarse-graining: macrostate x projects onto the basis
    states ranges[x], the (-, 0, +) energy bands of the block layout."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.ranges) != NUM_MACROSTATES:
            raise ValueError("coarsening needs exactly three macrostates")

    @property
    def dimension(self) -> int:
        return self.ranges[-1][1]

    @property
    def volumes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.ranges)


def build_coarsening(config: ModelConfig) -> Coarsening:
    """The (-, 0, +) band coarse-graining: exact index-range masks."""
    return Coarsening(ranges=config.block_layout)
