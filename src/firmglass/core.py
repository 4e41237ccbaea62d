"""Single-realization state and stochastic dynamics of the firm-rating model.

Each of N firms carries a discrete rating in {0, ..., r_max} (0 is default
and absorbing) and a move variable s in {-1, 0, +1}.  One micro-update
resamples the move of one firm from a heat-bath conditional that rewards
agreement with the other firms' current moves through a symmetric coupling
matrix, plus a per-move drift term; the firm's rating then shifts by the
sampled move, clamped by an absorbing barrier at 0 and a reflecting barrier
at r_max.  One time step performs ``n_firms`` micro-updates on randomly
chosen firms.

Conventions the rest of the package relies on:

* couplings are Gaussian(j0, sigma_j**2), symmetric, zero diagonal;
* the field cache ``local_fields[i, v + 1]`` always equals
  ``sum_j couplings[i, j] * (spins[j] == v)`` for v in {-1, 0, +1};
* micro-updates read the *latest* moves of all other firms (asynchronous
  heat-bath dynamics), and the rating moves immediately after the spin;
* defaulted firms keep updating their move and keep influencing neighbours;
  only their rating is frozen at 0;
* all randomness flows through a single ``numpy.random.Generator`` in a
  fixed draw order, so a realization is a pure function of its seed.

One engine, :func:`advance`, runs every micro-update: ``time_step`` feeds
it a whole step's firm order and uniforms, ``micro_update`` a single firm.
It is written for the interpreter: it reads the state element by element
as Python floats and ints, and runs a vectorized numpy operation only to
add and subtract a coupling row when a move flips.  The field cache is
column-major, so each move's column is contiguous and a flip is two
contiguous in-place adds; a C-ordered cache gives the same bits, only more
slowly.
The heat-bath weights come from :func:`heat_bath_weights`, which
:func:`conditional_spin_distribution` and the mean-field map use too, so
the probabilities the dynamics samples are exactly the ones that function
reports, and the mean-field theory applies the same softmax.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

SPIN_VALUES = (-1, 0, 1)

#: The paper's portfolio: STEPS time steps over the ratings {0, ..., R_MAX}.
#: Every default horizon and top class in the package reads these two.
STEPS = 8
R_MAX = 7

#: Per-move weights exp(f) for the drift-field scenario: a lone firm keeps
#: its rating with probability 0.75, loses a notch with 0.15, gains with 0.10.
RATING_DRIFT_WEIGHTS = (0.15, 0.75, 0.10)


def require_integer(name: str, value: object, minimum: int) -> int:
    """Refuse a count or seed that is not an integer >= ``minimum``; return it as ``int``.

    numpy integers pass; ``bool`` does not, although it is ``Integral``, so
    ``True`` is never taken for 1.
    """
    if type(value) is not int:  # a plain int skips the slow ABC check
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def seed_sequence(name: str, seed: object) -> np.random.SeedSequence:
    """The ``SeedSequence`` of an int >= 0 or a ``SeedSequence``; anything else
    (``None`` and a ``Generator`` would differ per call) raises ``ValueError``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(require_integer(name, seed, 0))


def f_table_from_weights(w_down: float, w_stay: float, w_up: float) -> dict[int, float]:
    """Build a drift table f(s) = log(weight) from positive per-move weights.

    An isolated firm's move distribution is the normalized weight triple, so
    weights that already sum to 1 are that distribution verbatim.
    """
    weights = (w_down, w_stay, w_up)
    if any(w <= 0 for w in weights):
        raise ValueError(f"drift weights must be positive, got {weights}")
    return {s: math.log(w) for s, w in zip(SPIN_VALUES, weights)}


def zero_f_table() -> dict[int, float]:
    """Drift table with f identically zero (pure interaction dynamics)."""
    return {s: 0.0 for s in SPIN_VALUES}


class FTable(Mapping):
    """Read-only, hashable copy of a drift table f(s) keyed by the move.

    It looks up like the dict it copies (``table[-1]`` is f(-1)), compares
    equal to any mapping with the same items, and pickles, so the frozen
    :class:`ModelParams` that holds it hashes and travels to worker
    processes.
    """

    def __init__(self, table: Mapping[int, float]) -> None:
        self._table = dict(table)

    def __getitem__(self, move: int) -> float:
        return self._table[move]

    def __iter__(self) -> Iterator[int]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __hash__(self) -> int:
        return hash(frozenset(self._table.items()))

    def __repr__(self) -> str:
        return repr(self._table)


@dataclass(frozen=True)
class ModelParams:
    """All scalar inputs of one model configuration.

    Attributes
    ----------
    n_firms:
        Number of firms N.
    j0, sigma_j:
        Mean and standard deviation of the Gaussian pairwise couplings;
        (n_firms - 1) * (abs(j0) + 10 * sigma_j) must be at most 1e300.
    r_max:
        Top rating class; ratings live in {0, ..., r_max} with r_max + 1
        levels and 0 meaning default.
    steps:
        Time horizon; each step performs ``n_firms`` micro-updates on firms
        drawn uniformly with replacement (:func:`draw_update_order`).
    f_table:
        Per-move drift term f(s), keyed by the move value -1/0/+1, each
        value at most 1e300 in magnitude.  Stored as an :class:`FTable` copy
        of floats, so later changes to the caller's mapping do not reach it.
    """

    n_firms: int
    j0: float = 0.0
    sigma_j: float = 0.0
    r_max: int = R_MAX
    steps: int = STEPS
    f_table: Mapping[int, float] = field(default_factory=zero_f_table)

    def __post_init__(self) -> None:
        for name in ("n_firms", "r_max", "steps"):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), 1))
        if not (math.isfinite(self.j0) and math.isfinite(self.sigma_j)):
            raise ValueError(
                f"j0 and sigma_j must be finite, got j0={self.j0}, sigma_j={self.sigma_j}"
            )
        for name in ("j0", "sigma_j"):  # a numpy scalar is stored as the float it equals
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.sigma_j < 0:
            raise ValueError(f"sigma_j must be >= 0, got {self.sigma_j}")
        if set(self.f_table) != set(SPIN_VALUES):
            raise ValueError(
                f"f_table must have exactly the keys {SPIN_VALUES}, "
                f"got {sorted(self.f_table)}"
            )
        if not all(math.isfinite(f) for f in self.f_table.values()):
            raise ValueError(f"f_table values must be finite, got {dict(self.f_table)}")
        table = FTable({move: float(f) for move, f in self.f_table.items()})
        object.__setattr__(self, "f_table", table)
        # the cap meanfield puts on beta: every field and heat-bath exponent
        # then stays some 8 orders of magnitude below inf
        field_bound = (self.n_firms - 1) * (abs(self.j0) + 10 * self.sigma_j)
        if max(field_bound, *(abs(f) for f in table.values())) > 1e300:
            raise ValueError(f"(n_firms - 1) * (|j0| + 10 * sigma_j) and each |f| must be "
                             f"at most 1e300, got {field_bound:g} and f_table={dict(table)}")


@dataclass
class EnsembleState:
    """Mutable per-realization state: ratings, moves and the field cache.

    ``local_fields[i, v + 1]`` caches the interaction field firm i feels for
    candidate move v, i.e. the coupling-weighted count of other firms whose
    current move equals v.  Every spin flip updates the cache incrementally;
    :func:`compute_local_fields` is the from-scratch reference.
    """

    ratings: np.ndarray      # (N,) int64 in [0, r_max]
    spins: np.ndarray        # (N,) int64 in {-1, 0, +1}
    # (N, 3) float64, column v + 1 for move v; column-major, so a flip adds
    # to two contiguous columns (a C-ordered cache gives the same bits, slower)
    local_fields: np.ndarray


@dataclass
class RealizationOutcome:
    """Result of one simulated realization."""

    nd: int
    final_ratings: np.ndarray
    final_spins: np.ndarray
    nd_trajectory: tuple[int, ...] | None = None


def sample_coupling_matrix(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Draw a symmetric, zero-diagonal Gaussian coupling matrix.

    Each strict-upper-triangle entry is an independent N(j0, sigma_j**2)
    draw; the lower triangle mirrors it.  Exactly N(N-1)/2 normal variates
    are consumed from ``rng``, independent of sigma_j.
    """
    n = params.n_firms
    draws = rng.normal(params.j0, params.sigma_j, size=n * (n - 1) // 2)
    couplings = np.zeros((n, n))
    # the draws fill the upper triangle row by row; row i's slice also fills
    # column i below the diagonal
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        couplings[i, i + 1:] = couplings[i + 1:, i] = draws[start:stop]
        start = stop
    return couplings


def compute_local_fields(couplings: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """From-scratch field cache: column v + 1 holds sum_j J[i, j] * (s_j == v).

    Sums the rows of the firms whose move is v, which is the same because
    the couplings are symmetric, and is what the flip updates accumulate.
    A plain reduction rather than a matrix-vector product: a BLAS call would
    wake BLAS worker threads, which then spin on CPU time nothing uses.  The
    cache is column-major, the layout :func:`advance` flips fastest.
    """
    fields = np.empty((couplings.shape[0], 3), order="F")
    for v in SPIN_VALUES:
        fields[:, v + 1] = couplings[spins == v].sum(axis=0)
    return fields


def initial_state(
    params: ModelParams, couplings: np.ndarray, rng: np.random.Generator
) -> EnsembleState:
    """Fresh state: ratings uniform on {1, ..., r_max}, moves uniform on {-1, 0, +1}.

    No firm starts in default; the field cache is computed exactly.
    Consumes 2N integer draws (ratings first, then moves).
    """
    ratings = rng.integers(1, params.r_max + 1, size=params.n_firms)
    spins = rng.integers(-1, 2, size=params.n_firms)
    return EnsembleState(
        ratings=ratings,
        spins=spins,
        local_fields=compute_local_fields(couplings, spins),
    )


def heat_bath_weights(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Unnormalized heat-bath weights of three exponents, overflow-guarded.

    Returns (exp(a - m), exp(b - m), exp(c - m)) with m the largest
    exponent, so the weights lie in [0, 1], the largest is exactly 1 and
    their sum stays finite for any finite field.
    """
    shift = a
    if b > shift:
        shift = b
    if c > shift:
        shift = c
    return math.exp(a - shift), math.exp(b - shift), math.exp(c - shift)


def conditional_spin_distribution(
    state: EnsembleState, firm: int, f_table: Mapping[int, float]
) -> np.ndarray:
    """Heat-bath conditional (P(-1), P(0), P(+1)) for one firm's move.

    P(v) is proportional to exp(h(v) + f(v)) with h read from the field
    cache.  The weights come from :func:`heat_bath_weights`, the same helper
    :func:`advance` samples from.
    """
    h_down, h_stay, h_up = state.local_fields[firm].tolist()
    ea, eb, ec = heat_bath_weights(
        h_down + f_table[-1], h_stay + f_table[0], h_up + f_table[1]
    )
    z = ea + eb + ec
    return np.array([ea / z, eb / z, ec / z])


def advance(
    state: EnsembleState,
    couplings: np.ndarray,
    params: ModelParams,
    order: Sequence[int],
    uniforms: Sequence[float],
) -> None:
    """Micro-updates of the firms in ``order``, the k-th decided by ``uniforms[k]``.

    Each micro-update resamples the firm's move from its heat-bath
    conditional: the move is -1 if u < P(-1), 0 if u < P(-1) + P(0) and +1
    otherwise.  If the move changed, every firm's cached field is adjusted
    in one O(N) pass (the old move's column loses this firm's coupling row,
    the new move's column gains it).  The rating then moves at once, so a
    firm selected twice can move twice.  The barriers: a defaulted firm
    (rating 0) never moves, a +1 move at r_max is reflected (the rating
    stays), and any other move shifts the rating by the move value.

    ``order`` and ``uniforms`` are best passed as lists of Python ints and
    floats: the loop runs in the interpreter, where numpy scalars are slow.
    """
    f_down, f_stay, f_up = (params.f_table[s] for s in SPIN_VALUES)
    r_max = params.r_max
    spins, ratings = memoryview(state.spins), memoryview(state.ratings)
    fields = state.local_fields
    field_row = fields.__getitem__
    columns = (fields[:, 0], fields[:, 1], fields[:, 2])
    subtract, add = np.subtract, np.add
    for firm, u in zip(order, uniforms):
        h_down, h_stay, h_up = field_row(firm).tolist()
        ea, eb, ec = heat_bath_weights(h_down + f_down, h_stay + f_stay, h_up + f_up)
        z = ea + eb + ec
        p_down = ea / z
        if u < p_down:
            new = -1
        elif u < p_down + eb / z:
            new = 0
        else:
            new = 1
        old = spins[firm]
        if new != old:
            row = couplings[firm]
            column = columns[old + 1]
            subtract(column, row, column)
            column = columns[new + 1]
            add(column, row, column)
            spins[firm] = new
        rating = ratings[firm]
        if rating != 0 and (rating != r_max or new != 1):
            ratings[firm] = rating + new


def micro_update(
    state: EnsembleState,
    couplings: np.ndarray,
    firm: int,
    params: ModelParams,
    rng: np.random.Generator,
) -> None:
    """Resample one firm's move with one uniform from ``rng``; see :func:`advance`."""
    advance(state, couplings, params, (firm,), (rng.random(),))


def draw_update_order(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Firm indices visited in one time step: ``n_firms`` uniform draws with
    replacement, so a firm is updated Binomial(N, 1/N) times per step."""
    return rng.integers(0, params.n_firms, size=params.n_firms)


def time_step(
    state: EnsembleState,
    couplings: np.ndarray,
    params: ModelParams,
    rng: np.random.Generator,
) -> None:
    """One time step: exactly ``n_firms`` micro-updates on drawn firms.

    Draws the firm order, then one uniform per micro-update, the order in
    which ``n_firms`` calls of :func:`micro_update` would consume them.
    """
    order = draw_update_order(params, rng)
    uniforms = rng.random(params.n_firms)
    advance(state, couplings, params, order.tolist(), uniforms.tolist())


def count_defaults(state: EnsembleState) -> int:
    return int(np.count_nonzero(state.ratings == 0))


def run_realization(
    params: ModelParams,
    seed: int | np.random.SeedSequence,
    *,
    record_trajectory: bool = False,
) -> RealizationOutcome:
    """Simulate one full realization from a seed.

    Draws a fresh coupling matrix and initial state, advances ``steps`` time
    steps and counts defaulted firms.  Deterministic: the generator is
    consumed in a fixed order (couplings, ratings, moves, then per step:
    firm order, then one uniform per micro-update), so the same
    (params, seed) pair always yields the same outcome.  The seed must be an
    int >= 0 or a ``SeedSequence`` (:func:`seed_sequence`), else
    ``ValueError``.
    """
    rng = np.random.default_rng(seed_sequence("seed", seed))
    couplings = sample_coupling_matrix(params, rng)
    state = initial_state(params, couplings, rng)
    trajectory: list[int] | None = [] if record_trajectory else None
    for _ in range(params.steps):
        time_step(state, couplings, params, rng)
        if trajectory is not None:
            trajectory.append(count_defaults(state))
    return RealizationOutcome(
        nd=count_defaults(state),
        final_ratings=state.ratings,
        final_spins=state.spins,
        nd_trajectory=tuple(trajectory) if trajectory is not None else None,
    )
