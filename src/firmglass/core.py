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

* couplings are Gaussian(j0, sigma_j**2), symmetric, zero diagonal: standard
  normals scaled in place (:func:`couplings_from_normals`), which gives the
  bits of ``rng.normal(j0, sigma_j)``;
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
It is written for the interpreter: it reads the moves, the ratings and
each field-cache column through memoryviews, one item at a time as Python
ints and floats, and runs a vectorized numpy operation only to add and
subtract a coupling row when a move flips.  The field cache is
column-major, so each move's column is contiguous and a flip is two
contiguous in-place adds; a C-ordered cache gives the same bits through
strided views, only more slowly.
:func:`heat_bath_weights` is the one definition of the heat-bath weights:
:func:`conditional_spin_distribution` and the mean-field map call it, and
:func:`advance` runs an inlined copy of its body, which the tests hold to
it bit for bit, so the probabilities the dynamics samples are exactly the
ones that function reports, and the mean-field theory applies the same
softmax.

:func:`run_realization` draws the couplings and hands them to
:func:`simulate`; ``experiment._one_worker_nds`` draws them apart from the
run, and its docstring says why.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
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

#: The largest field bound and |f| that :class:`ModelParams` takes, and the
#: largest mean-field beta: every field and heat-bath exponent then stays
#: some 8 orders of magnitude below inf.
FIELD_MAX = 1e300


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
    """Build a drift table f(s) = log(weight) from positive, finite per-move weights.

    An isolated firm's move distribution is the normalized weight triple, so
    weights that already sum to 1 are that distribution verbatim.
    """
    weights = (w_down, w_stay, w_up)
    if not all(0 < w < math.inf for w in weights):  # NaN fails every comparison
        raise ValueError(f"drift weights must be positive and finite, got {weights}")
    return {s: math.log(w) for s, w in zip(SPIN_VALUES, weights)}


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


#: The drift table of each ``f_mode`` name a sweep document and ``--f-mode`` use.
F_TABLES = {
    "zero": FTable(dict.fromkeys(SPIN_VALUES, 0.0)),
    "constant_table": FTable(f_table_from_weights(*RATING_DRIFT_WEIGHTS)),
}


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
        value at most 1e300 in magnitude; ``F_TABLES["zero"]`` by default,
        which is pure interaction dynamics.  Stored as an :class:`FTable` copy
        of floats, so later changes to the caller's mapping do not reach it.
    """

    n_firms: int
    j0: float = 0.0
    sigma_j: float = 0.0
    r_max: int = R_MAX
    steps: int = STEPS
    f_table: Mapping[int, float] = F_TABLES["zero"]

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
        field_bound = (self.n_firms - 1) * (abs(self.j0) + 10 * self.sigma_j)
        if max(field_bound, *(abs(f) for f in table.values())) > FIELD_MAX:
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
    """Result of one simulated realization: ``nd_trajectory`` holds the
    defaulted-firm count after each time step, and ``nd`` is its last entry."""

    nd: int
    final_ratings: np.ndarray
    final_spins: np.ndarray
    nd_trajectory: tuple[int, ...]


def couplings_from_normals(params: ModelParams, normals: np.ndarray) -> np.ndarray:
    """The symmetric, zero-diagonal coupling matrix of N(N-1)/2 standard normals.

    Scales ``normals`` in place to N(j0, sigma_j**2) draws, ``*= sigma_j``
    and then ``+= j0``: the bits ``rng.normal(j0, sigma_j)`` computes from
    the same standard normals.  They fill the strict upper triangle row by
    row, and the lower triangle mirrors it.
    """
    n = params.n_firms
    normals *= params.sigma_j
    normals += params.j0
    couplings = np.zeros((n, n))
    # row i's slice also fills column i below the diagonal
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        couplings[i, i + 1:] = couplings[i + 1:, i] = normals[start:stop]
        start = stop
    return couplings


def sample_coupling_matrix(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Draw a symmetric, zero-diagonal Gaussian coupling matrix.

    Each strict-upper-triangle entry is an independent N(j0, sigma_j**2)
    draw; the lower triangle mirrors it.  Exactly N(N-1)/2 standard normal
    variates are consumed from ``rng``, independent of sigma_j, and scaled
    by :func:`couplings_from_normals`, so the matrix and the generator state
    it leaves are those of ``rng.normal(j0, sigma_j, size=N(N-1)/2)``.
    """
    n = params.n_firms
    return couplings_from_normals(params, rng.standard_normal(n * (n - 1) // 2))


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
    exponent, so the weights lie in [0, 1] and their sum stays finite for
    any finite field.  The max is found by ``b > a``, then ``c > b`` or
    ``c > a``, so a tie goes to the earlier exponent, and its weight is the
    literal 1.0: for a finite m, m - m is 0.0 and exp(0.0) is exactly 1.0,
    so skipping that exp changes no bit.  :func:`advance` inlines this body.
    """
    if b > a:
        if c > b:
            return math.exp(a - c), math.exp(b - c), 1.0
        return math.exp(a - b), 1.0, math.exp(c - b)
    if c > a:
        return math.exp(a - c), math.exp(b - c), 1.0
    return 1.0, math.exp(b - a), math.exp(c - a)


def conditional_spin_distribution(
    state: EnsembleState, firm: int, f_table: Mapping[int, float]
) -> np.ndarray:
    """Heat-bath conditional (P(-1), P(0), P(+1)) for one firm's move.

    P(v) is proportional to exp(h(v) + f(v)) with h read from the field
    cache.  The weights come from :func:`heat_bath_weights`, whose body
    :func:`advance` inlines, so the dynamics samples exactly these.
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
    For the same reason it reads the moves, the ratings and the three
    field-cache columns through memoryviews built once per call; they share
    the arrays' memory, so they see each flip's in-place column updates.
    """
    f_down, f_stay, f_up = (params.f_table[s] for s in SPIN_VALUES)
    r_max = params.r_max
    spins, ratings = memoryview(state.spins), memoryview(state.ratings)
    fields = state.local_fields
    columns = (fields[:, 0], fields[:, 1], fields[:, 2])
    down, stay, up = map(memoryview, columns)
    subtract, add, exp = np.subtract, np.add, math.exp
    for firm, u in zip(order, uniforms):
        a, b, c = down[firm] + f_down, stay[firm] + f_stay, up[firm] + f_up
        if b > a:  # heat_bath_weights, inlined: it saves a call per update
            if c > b:
                ea, eb, ec = exp(a - c), exp(b - c), 1.0
            else:
                ea, eb, ec = exp(a - b), 1.0, exp(c - b)
        elif c > a:
            ea, eb, ec = exp(a - c), exp(b - c), 1.0
        else:
            ea, eb, ec = 1.0, exp(b - a), exp(c - a)
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
        if new:  # a stay leaves the rating as it is
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


def simulate(
    params: ModelParams, rng: np.random.Generator, couplings: np.ndarray
) -> RealizationOutcome:
    """Run one realization on drawn couplings: the initial state and then
    ``steps`` time steps from ``rng``, counting defaulted firms after each."""
    state = initial_state(params, couplings, rng)
    trajectory = []
    for _ in range(params.steps):
        time_step(state, couplings, params, rng)
        trajectory.append(count_defaults(state))
    return RealizationOutcome(
        nd=trajectory[-1],
        final_ratings=state.ratings,
        final_spins=state.spins,
        nd_trajectory=tuple(trajectory),
    )


def run_realization(
    params: ModelParams, seed: int | np.random.SeedSequence
) -> RealizationOutcome:
    """Simulate one full realization from a seed.

    Draws a fresh coupling matrix and initial state, advances ``steps`` time
    steps and counts defaulted firms after each; ``nd`` is the trajectory's
    last entry.  Deterministic: the generator is consumed in a fixed order
    (couplings, ratings, moves, then per step: firm order, then one uniform
    per micro-update), so the same (params, seed) pair always yields the
    same outcome.  The seed must be an int >= 0 or a ``SeedSequence``
    (:func:`seed_sequence`), else ``ValueError``.
    """
    rng = np.random.default_rng(seed_sequence("seed", seed))
    return simulate(params, rng, sample_coupling_matrix(params, rng))
