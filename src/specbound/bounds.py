"""Finite-sample error certificates for quadratic-form spectral estimators.

Two certificate styles are provided.  Bound evaluators turn a record's two norms
and a failure probability delta into a numeric high-probability error bound
(``NoiseAssumption.deviation``, the exact inverse of the tail); condition checks
answer "does the sufficient condition for error at most eps (probability at
least 1 - delta) hold for this estimator?".  Concentration conditions compare
their bound with eps; the bias condition asks the diagonal sums b[k] to lie in
[0, 1] and to stay near one out to a covariance-tail cutoff lag, a test made
only in ``check_conditions``.  Estimator-specific checks run those conditions
on a family's closed forms, and the bias part adds what the family's own
``bias_condition`` asks beyond the general test; for the raw periodograms
only the bias condition is attainable.

Infeasible or unavailable certificates are returned as structured results,
never raised, so callers can tabulate feasibility frontiers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .constants import (
    COVER_BASE,
    FREQUENCY_COVER_FACTOR,
    GAUSSIAN,
    NoiseAssumption,
    sub_gaussian,
)
from .estimators import certificate_params, closed_form_bias
from .quadform import (
    _RANGE_SLACK,
    BiasCoefficients,
    CertificateParams,
    QuadraticForm,
    bias_coefficients,
    envelope_tail,
)

__all__ = [
    "BartlettSelection",
    "BoundContext",
    "Certificate",
    "CONDITION_PARTS",
    "GAUSSIAN",
    "NoiseAssumption",
    "PERIODOGRAM_NOTE",
    "bartlett_bias_closed_form",
    "certificate_suite",
    "check_conditions",
    "check_estimator_conditions",
    "covariance_tail",
    "data_driven_error_bound",
    "data_driven_factor",
    "envelope_from_form",
    "geometric_bias_bound",
    "optimize_bartlett_m",
    "pointwise_error_bound",
    "sub_gaussian",
    "tail_cutoff_lag",
    "worst_case_error_bound",
]

CONDITION_PARTS = ("pointwise", "worst_case", "bias", "pointwise_total", "worst_total")

# each conjunction part and the concentration part it joins to the bias part
_TOTALS = {"pointwise_total": "pointwise", "worst_total": "worst_case"}

# why a periodogram has no concentration certificate
PERIODOGRAM_NOTE = "periodogram spectral norm is at least one"

# why a bound whose log budget is infinite certifies nothing
_BUDGET_NOTE = "log budget passes the largest double"

# the furthest lag a covariance tail or decay envelope is searched to
_LAG_BUDGET = 1_000_000

# the width to which the continuous block-length search narrows its bracket
_BLOCK_TOLERANCE = 1e-6

# log of 2^-1080, a 32nd of the smallest subnormal: a power below it rounds to zero
_UNDERFLOW_LOG = -1080.0 * math.log(2.0)


@dataclass(frozen=True)
class BoundContext:
    """Process-side inputs shared by all certificates.

    ``decay`` is an optional (gamma, rho) envelope with ||R[k]|| <= gamma *
    rho^|k|; an attached ``model`` supplies the covariance tail sums for the
    cutoff-lag search (the envelope is used otherwise) and must lie below the
    envelope at every lag.
    """

    assumption: NoiseAssumption
    phi_inf: float
    r1_norm: float
    channels: int
    decay: tuple[float, float] | None = None
    model: object = None

    def __post_init__(self):
        if not (np.isfinite(self.phi_inf) and self.phi_inf > 0.0):
            raise ValueError("phi_inf must be positive and finite")
        if not (np.isfinite(self.r1_norm) and self.r1_norm > 0.0):
            raise ValueError("r1_norm must be positive and finite")
        if self.channels < 1:
            raise ValueError("channel count must be positive")
        if self.channels > sys.float_info.max:
            raise ValueError("channel count passes the largest double")
        if self.decay is not None:
            gamma, rho = self.decay
            if not gamma > 0.0 or not 0.0 <= rho < 1.0:
                raise ValueError("decay pair must satisfy gamma > 0 and rho in [0, 1)")
            object.__setattr__(self, "decay", (float(gamma), float(rho)))
            if self.model is not None:
                self._check_decay(*self.decay)

    def _check_decay(self, gamma: float, rho: float) -> None:
        """Reject a decay envelope that the attached model's covariance norms exceed at some lag.

        Lags 0..64 are checked directly.  Past them the model's certified
        envelope gamma_m rho_m^k stands in for the norms: it stays below
        gamma rho^k from lag K = ceil(log(gamma_m / gamma) / log(rho / rho_m))
        on, so the direct check extends to lag K when K lies past 64.  No lag
        is late enough when rho_m > rho, or rho_m = rho and gamma_m > gamma.
        When rho_m > rho, ``model.decay(rho)`` stands in for (gamma_m, rho_m):
        a state-space model is certified at every rate above its spectral radius.
        """

        def check_lags(depth: int) -> None:
            norms = np.linalg.svd(self.model.autocov_stack(depth), compute_uv=False)[:, 0]
            failing = np.flatnonzero(norms > gamma * rho ** np.arange(depth + 1) + 1e-9)
            if failing.size:
                raise ValueError(f"decay envelope fails against the model at lag {failing[0]}")

        check_lags(64)
        gamma_m, rho_m = self.model.decay()
        if rho_m > rho:
            gamma_m, rho_m = self.model.decay(rho)
        if rho_m > rho or (rho_m == rho and gamma_m > gamma):
            need = "rho must be at least" if rho_m > rho else f"gamma must be at least {gamma_m!r} at"
            raise ValueError(
                f"decay envelope falls below the model's certified envelope ({gamma_m!r}, {rho_m!r}) "
                f"at large lags: {need} the certified rate {rho_m!r}"
            )
        if gamma_m > gamma and rho_m > 0.0:
            crossing = math.ceil(math.log(gamma_m / gamma) / math.log(rho / rho_m))
            if crossing > _LAG_BUDGET:
                raise ValueError("decay envelope meets the model's certified envelope only past the lag budget")
            if crossing > 64:
                check_lags(crossing)

    @classmethod
    def from_model(cls, model, assumption: NoiseAssumption) -> "BoundContext":
        return cls(
            assumption,
            float(model.phi_inf()),
            float(model.r1_norm()),
            int(model.channels),
            model.decay(),
            model,
        )

    def budget(self, delta: float, truncation=None) -> float:
        """Log budget at failure probability delta: the exponent the tail must reach.

        A sum of log terms, each finite at any delta in (0, 1) and any channel
        count below 10^300: the channel cover, log(COVER_BASE^(2 channels)) /
        rate, of the unit sphere of the channel space; with a ``truncation``
        width T, the frequency cover log(K) of K = 5 T^2 frequencies; and the
        tail, ``log_budget`` at delta, or at delta / 2 with a truncation.

        The frequency cover is not yet proven.  A union bound over K points
        asks each one for failure delta / (2 K), a budget of
        log(K) / rate plus the budget at delta / 2: the log K term needs the
        factor 1 / rate.  Read as a union bound, the undivided log K proves a
        failure probability of K^(1 - rate) delta / 2, not delta; under
        Gaussian constants at T = 32 that is about 1960 delta.  Until that
        term is divided by the rate, the certificates uniform over frequency
        (``worst_case_error_bound``, ``data_driven_factor`` and the
        ``worst_case`` condition) are unproven.
        """
        if not 0.0 < delta < 1.0:
            raise ValueError("failure probability must lie in (0, 1)")
        log_delta = math.log(delta)
        frequency_cover = 0.0
        if truncation is not None:
            if not truncation >= 1:
                raise ValueError("truncation width must be at least one")
            frequency_cover = math.log(FREQUENCY_COVER_FACTOR * float(truncation) ** 2)
            log_delta -= math.log(2.0)  # half the smallest subnormal would round to zero
        channel_cover = 2.0 * self.channels * math.log(COVER_BASE) / self.assumption.rate
        return channel_cover + self.assumption.log_budget(log_delta) + frequency_cover


def covariance_tail(ctx: BoundContext, lag: int) -> float:
    """Upper bound on the summed covariance norms over |k| >= lag.

    Taken from the attached model when there is one; otherwise from the
    context's decay envelope.
    """
    if ctx.model is not None:
        if lag <= 0:
            return float(ctx.model.r1_norm())
        return float(envelope_tail(*ctx.model.decay(), lag))
    if lag <= 0:
        return ctx.r1_norm
    if ctx.decay is None:
        raise ValueError("context carries neither a model tail nor a decay envelope")
    return envelope_tail(*ctx.decay, lag)


def tail_cutoff_lag(eps: float, ctx: BoundContext) -> int:
    """Smallest lag whose covariance tail drops to eps / 2 (nonincreasing in eps)."""
    if not eps > 0.0:
        raise ValueError("accuracy target must be positive")
    target = eps / 2.0
    lag = 0
    while covariance_tail(ctx, lag) > target:
        lag += 1
        if lag > _LAG_BUDGET:
            raise ValueError("covariance tail does not reach eps / 2 within the lag budget")
    return lag


@dataclass(frozen=True)
class Certificate:
    """One machine-checked statement: a condition verdict or a bound value.

    ``available`` is False when the requested certificate does not exist for
    the inputs (periodogram concentration, a data-driven factor of one or
    more); no exception is raised in that case.
    """

    statement: str
    available: bool = True
    holds: bool | None = None
    value: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    inputs: tuple = ()
    note: str = ""


def _inputs(**kwargs) -> tuple:
    return tuple(kwargs.items())


def envelope_from_form(form: QuadraticForm) -> float:
    """max(||A||_2, ||A||_F^2) of the dense form; no bound reads it, and it is kept only as a layer of the benchmark tracer."""
    return max(form.certificate_params.spectral, form.certificate_params.frobenius_sq)


def _conjunction(statement: str, first: Certificate, second: Certificate, eps: float, delta: float) -> Certificate:
    """Concentration and bias conditions at eps together bound the total error by 2 * eps."""
    if not (first.available and second.available):
        return Certificate(statement, available=False, epsilon=eps, delta=delta, note=first.note or second.note)
    return Certificate(
        statement,
        holds=bool(first.holds and second.holds),
        epsilon=eps,
        delta=delta,
        inputs=_inputs(condition_epsilon=eps, conclusion_epsilon=2.0 * eps),
    )


def check_conditions(
    part: str,
    eps: float,
    delta: float,
    ctx: BoundContext,
    *,
    form: QuadraticForm | None = None,
    params: CertificateParams | None = None,
    bias: BiasCoefficients | None = None,
) -> Certificate:
    """Verdict for one sufficient error condition of the general framework.

    Parts: ``pointwise`` and ``worst_case`` (concentration at a single
    frequency and uniform over it: the row of ``pointwise_error_bound`` or
    ``worst_case_error_bound`` on ``params`` or the dense form's record, with
    a verdict that holds when the bound is at most eps; unavailable when the
    bound is), ``bias`` (diagonal sums close to one out to the
    tail cutoff), and the conjunctions ``pointwise_total``/``worst_total``
    whose conclusions hold at accuracy 2 * eps with probability 1 - delta.
    """
    if part not in CONDITION_PARTS:
        raise ValueError(f"unknown condition part {part!r}")
    if not eps > 0.0:
        raise ValueError("accuracy target must be positive")
    if part in _TOTALS:
        first = check_conditions(_TOTALS[part], eps, delta, ctx, form=form, params=params)
        second = check_conditions("bias", eps, delta, ctx, form=form, bias=bias)
        return _conjunction(f"{part}_condition", first, second, eps, delta)
    if part != "bias":
        if params is None and form is not None:
            params = form.certificate_params
        evaluator = pointwise_error_bound if part == "pointwise" else worst_case_error_bound
        bound = evaluator(params, delta, ctx)
        holds = None if bound.value is None else bool(bound.value <= eps)
        return replace(bound, statement=f"{part}_condition", holds=holds, epsilon=eps, delta=delta)
    if bias is None:
        if form is None:
            raise ValueError("bias check needs the diagonal sums or the dense form")
        bias = bias_coefficients(form)
    cutoff = tail_cutoff_lag(eps, ctx)
    floor = 1.0 - eps / (2.0 * ctx.r1_norm)
    in_range = bool(
        np.all(bias.values >= -_RANGE_SLACK) and np.all(bias.values <= 1.0 + _RANGE_SLACK)
    )
    # b is even, so lags 0..cutoff-1 cover both signs; lags the diagonal sums
    # do not store read 0.0, so one comparison covers them
    stored = min(cutoff, bias.half_width)
    near_one = bool(np.all(bias.values[:stored] >= floor)) and (cutoff == stored or 0.0 >= floor)
    return Certificate(
        "bias_condition",
        holds=in_range and near_one,
        epsilon=eps,
        delta=delta,
        inputs=_inputs(cutoff=cutoff, floor=floor),
    )


def _deviation_bound(statement: str, params: CertificateParams, budget: float, delta, ctx, factor=1.0, **extra) -> Certificate:
    """``factor`` times the deviation the record's norms prove at ``budget``, with the norms and ``extra`` as inputs; unavailable when the budget is infinite."""
    inputs = _inputs(spectral=params.spectral, frobenius_sq=params.frobenius_sq, **extra)
    if budget == math.inf:
        return Certificate(statement, available=False, delta=delta, inputs=inputs, note=_BUDGET_NOTE)
    value = factor * ctx.assumption.deviation(params.spectral, params.frobenius_sq, budget, ctx.phi_inf)
    return Certificate(statement, value=value, delta=delta, inputs=inputs)


def pointwise_error_bound(params: CertificateParams | None, delta: float, ctx: BoundContext) -> Certificate:
    """Deviation bound at a single frequency holding with probability 1 - delta; unavailable without a record or a finite budget."""
    if params is None:
        return Certificate("pointwise_bound", available=False, note=PERIODOGRAM_NOTE)
    return _deviation_bound("pointwise_bound", params, ctx.budget(delta), delta, ctx)


def _cover_width(params: CertificateParams) -> int | None:
    """The width that the frequency cover reads: None for a zero form, which estimates exactly zero at every frequency and has no width to cover."""
    return params.truncation if params.spectral > 0.0 or params.frobenius_sq > 0.0 else None


def worst_case_error_bound(params: CertificateParams | None, delta: float, ctx: BoundContext) -> Certificate:
    """Deviation bound uniform over frequency holding with probability 1 - delta; unavailable without a record or a finite budget."""
    if params is None:
        return Certificate("worst_case_bound", available=False, note=PERIODOGRAM_NOTE)
    return _deviation_bound("worst_case_bound", params, ctx.budget(delta, _cover_width(params)), delta, ctx, 2.0, truncation=params.truncation)


def _power_width(rho: float, truncation: int) -> int:
    """How many lags k >= 0, at most ``truncation``, have rho^k at or above 2^-1080; later powers round to zero."""
    if rho == 0.0:
        return 1
    return min(truncation, int(_UNDERFLOW_LOG / math.log(rho)) + 1)


def geometric_bias_bound(bias: BiasCoefficients, truncation: int, gamma: float, rho: float) -> Certificate:
    """Sure bias bound when ||R[k]|| <= gamma rho^|k| and b vanishes beyond ``truncation``."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    truncation = int(truncation)
    if truncation < 1:
        raise ValueError("truncation width must be at least one")
    if np.any(bias.values[truncation:] != 0.0):
        raise ValueError("diagonal sums must vanish beyond the truncation width")
    # the lags whose power rounds to zero add exact zeros, which leave a
    # sequential sum's bits, so they are not summed
    width = _power_width(rho, truncation)
    # the powers equal the scalar rho ** k of a per-lag sum: for one numpy
    # integer k numpy returns rho at k = 1 and rho * rho at k = 2, which its
    # array power loop need not
    powers = rho ** np.arange(width, dtype=float)
    powers[1:3] = [rho, rho * rho][: width - 1]
    # |1 - b[k]| rho^|k| for k = -(width - 1) .. width - 1, built in place
    terms = 1.0 - bias.on_lags(width)
    np.abs(terms, out=terms)
    terms[: width - 1] *= powers[:0:-1]
    terms[width - 1 :] *= powers
    # accumulate adds left to right, in the order of a sequential sum; np.sum adds pairwise
    body = np.add.accumulate(terms, out=terms)[-1]
    value = gamma * body + envelope_tail(gamma, rho, truncation)
    return Certificate(
        "bias_bound_geometric",
        value=float(value),
        inputs=_inputs(truncation=truncation, gamma=gamma, rho=rho),
    )


def data_driven_factor(params: CertificateParams, delta: float, ctx: BoundContext) -> float:
    """The multiplier of the self-referential worst-case bound (worst bound / phi_inf)."""
    return 2.0 * ctx.assumption.deviation(params.spectral, params.frobenius_sq, ctx.budget(delta, _cover_width(params)), 1.0)


def data_driven_error_bound(a: float, bias_bound: float, estimate_sup: float) -> Certificate:
    """Total worst-case bound from the observed estimate when the true sup is unknown.

    Returns an unavailable certificate when the concentration factor reaches
    one, in which case the self-referential bound cannot be closed.
    """
    if a < 0.0 or bias_bound < 0.0 or estimate_sup < 0.0:
        raise ValueError("inputs must be nonnegative")
    if a >= 1.0:
        return Certificate(
            "data_driven_bound",
            available=False,
            note="concentration factor is at least one; no certificate",
            inputs=_inputs(a=a),
        )
    value = (a * estimate_sup + bias_bound) / (1.0 - a)
    return Certificate(
        "data_driven_bound",
        value=value,
        inputs=_inputs(a=a, bias_bound=bias_bound, estimate_sup=estimate_sup),
    )


def check_estimator_conditions(
    spec, num_samples: int, part: str, eps: float, delta: float, ctx: BoundContext
) -> Certificate:
    """Estimator-specific sufficient condition for one of the ``CONDITION_PARTS``.

    The general condition on the family's ``certificate_params(n)`` and
    ``closed_form_bias(spec, n)``; the bias part adds the family's
    ``bias_condition``, what it asks beyond the general test.  For the
    periodogram variants (no record) only the bias condition is attainable.
    """
    if part not in CONDITION_PARTS:
        raise ValueError(f"unknown condition part {part!r}")
    n = int(num_samples)
    rows = _estimator_conditions(spec, n, spec.certificate_params(n), closed_form_bias(spec, n), eps, delta, ctx)
    return rows[CONDITION_PARTS.index(part)]


def _estimator_conditions(
    spec, n: int, params: CertificateParams | None, sums: BiasCoefficients, eps: float, delta: float, ctx: BoundContext
) -> list[Certificate]:
    """Every part's row, in ``CONDITION_PARTS`` order, on the record and sums at n built by the caller."""
    rows = {
        part: replace(check_conditions(part, eps, delta, ctx, params=params), statement=f"{spec.kind}.{part}_condition")
        for part in ("pointwise", "worst_case")
    }
    # the general test on the closed-form diagonal sums, and what the family asks beyond it
    general = check_conditions("bias", eps, delta, ctx, bias=sums)
    cutoff = dict(general.inputs)["cutoff"]
    holds = general.holds and spec.bias_condition(n, cutoff, eps, ctx.r1_norm)
    # a periodogram's own condition is stated in the cutoff alone, and its row records only that
    inputs = general.inputs[:1] if params is None else general.inputs
    rows["bias"] = replace(general, statement=f"{spec.kind}.bias_condition", holds=bool(holds), inputs=inputs)
    for part, base in _TOTALS.items():
        rows[part] = _conjunction(f"{spec.kind}.{part}_condition", rows[base], rows["bias"], eps, delta)
    return [rows[part] for part in CONDITION_PARTS]


def certificate_suite(
    spec, num_samples: int, delta: float, ctx: BoundContext, *, epsilon: float | None = None, estimate_sup=None
) -> list[Certificate]:
    """The certificate rows of one estimator, in the order ``certify`` writes them.

    ``pointwise_bound`` and ``worst_case_bound`` are always present, and
    unavailable (``PERIODOGRAM_NOTE``) for a periodogram, which has no norm
    record.  With a decay pair on the context, ``bias_bound_geometric``
    follows, summed to the record's truncation width or, without a record,
    to N; with a record too, ``total_worst_bound``, their sum.  With
    ``estimate_sup``, the estimate's observed sup, ``data_driven_bound``
    follows: unavailable, with a note, without both the record and the decay
    pair, or when its factor reaches one.  With ``epsilon``, the
    ``check_estimator_conditions`` rows of every part close the table.  Any
    other row is omitted, not marked unavailable.  A log budget past the
    largest double makes ``pointwise_bound``, ``worst_case_bound``,
    ``total_worst_bound`` and ``data_driven_bound`` unavailable, with a
    note, and the concentration conditions and conjunctions with them.
    """
    params = certificate_params(spec, num_samples)
    rows = [pointwise_error_bound(params, delta, ctx), worst_case_error_bound(params, delta, ctx)]
    bias = sums = None
    if ctx.decay is not None:
        truncation = num_samples if params is None else params.truncation
        sums = closed_form_bias(spec, num_samples)
        bias = geometric_bias_bound(sums, truncation, *ctx.decay)
        rows.append(bias)
    if params is not None and bias is not None:
        worst = rows[1]
        if worst.available:
            inputs = _inputs(concentration=worst.value, bias=bias.value)
            rows.append(Certificate("total_worst_bound", value=worst.value + bias.value, delta=delta, inputs=inputs))
        else:
            rows.append(Certificate("total_worst_bound", available=False, delta=delta, note=worst.note))
        if estimate_sup is not None and not worst.available:
            # the factor takes the worst-case bound's budget, infinite here too
            rows.append(Certificate("data_driven_bound", available=False, note=worst.note))
        elif estimate_sup is not None:
            rows.append(data_driven_error_bound(data_driven_factor(params, delta, ctx), bias.value, estimate_sup))
    elif estimate_sup is not None:
        note = "needs a norm record and a decay pair"
        rows.append(Certificate("data_driven_bound", available=False, note=note))
    if epsilon is not None:
        sums = closed_form_bias(spec, num_samples) if sums is None else sums
        rows += _estimator_conditions(spec, int(num_samples), params, sums, epsilon, delta, ctx)
    return rows


def bartlett_bias_closed_form(gamma: float, rho: float, block_length) -> float:
    """Explicit geometric-decay bias bound for the block-averaged estimator."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    m = float(block_length)
    if not m >= 1.0:
        raise ValueError("block length must be at least one")
    lead = 2.0 * gamma * rho / ((1.0 - rho) ** 2 * m)
    tail = 2.0 * gamma * (rho ** 2 / (1.0 - rho) ** 2 + 1.0 / (1.0 - rho)) * rho ** m
    return lead + tail


@dataclass(frozen=True)
class BartlettSelection:
    """Chosen block length and the total (concentration + bias) bound it attains."""

    block_length: float
    bound: float
    divisor_constrained: bool


def _golden_minimum(func, low: float, high: float) -> float:
    """Golden-section search (Kiefer 1953) for the minimum of a unimodal ``func`` on [low, high].

    Shrinks the bracket by the golden ratio per call of ``func`` until it is
    no wider than ``_BLOCK_TOLERANCE`` and returns the better of its two
    inner points, which is nearer a kinked minimum than the midpoint.
    """
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = high - shrink * (high - low), low + shrink * (high - low)
    f_left, f_right = func(left), func(right)
    while high - low > _BLOCK_TOLERANCE:
        if f_left <= f_right:
            high, right, f_right = right, left, f_left
            left = high - shrink * (high - low)
            f_left = func(left)
        else:
            low, left, f_left = left, right, f_right
            right = low + shrink * (high - low)
            f_right = func(right)
    return left if f_left <= f_right else right


def optimize_bartlett_m(
    num_samples: int, delta: float, ctx: BoundContext, divisors_only: bool = True
) -> BartlettSelection:
    """Pick the block length minimizing concentration plus closed-form bias.

    With ``divisors_only`` the search is exhaustive over the divisors of the
    sample count, ties broken toward the smaller block; otherwise the block
    length is a real number in [1, num_samples], the best point of a
    256-point geometric grid refined by golden section between its grid
    neighbours (used to study how the optimum scales with the sample count).
    An unavailable worst-case bound raises ValueError with the bound's note.
    """
    if ctx.decay is None:
        raise ValueError("optimizer needs a decay envelope on the context")
    gamma, rho = ctx.decay
    n = int(num_samples)
    if n < 1:
        raise ValueError("sample count must be positive")

    def total(m: float) -> float:
        concentration = worst_case_error_bound(CertificateParams(m / n, m / n, m), delta, ctx)
        if not concentration.available:
            raise ValueError(concentration.note)
        return concentration.value + bartlett_bias_closed_form(gamma, rho, m)

    if divisors_only:
        # the divisors up to sqrt(n), then their cofactors, ascending, so ties go to the smaller
        # block (a square's root comes twice, harmlessly); np.union1d would import numpy.ma
        small = np.arange(1, math.isqrt(n) + 1)
        small = small[n % small == 0]
        best = min(np.concatenate((small, n // small[::-1])).tolist(), key=total)
        return BartlettSelection(best, total(best), True)
    grid = np.geomspace(1.0, n, 256)
    at = int(np.argmin([total(m) for m in grid]))
    coarse = float(grid[at])
    refined = _golden_minimum(total, float(grid[max(at - 1, 0)]), float(grid[min(at + 1, grid.size - 1)]))
    best = min([coarse, refined], key=total)
    return BartlettSelection(best, total(best), False)
