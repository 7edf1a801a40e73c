"""Finite-sample error certificates for quadratic-form spectral estimators.

Two certificate styles are provided.  Condition checks answer "does the
sufficient condition for error at most eps (probability at least 1 - delta)
hold for this estimator?"; bound evaluators invert those conditions into
numeric high-probability error bounds.  Concentration conditions compare the
reciprocal of a norm envelope against the product of an accuracy demand and a
confidence demand; the bias condition asks the diagonal sums b[k] to lie in
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
from dataclasses import dataclass, replace

import numpy as np

from .constants import (
    COVER_BASE,
    FREQUENCY_COVER_FACTOR,
    GAUSSIAN,
    NoiseAssumption,
    sub_gaussian,
)
from .estimators import closed_form_bias
from .quadform import (
    _RANGE_SLACK,
    BiasCoefficients,
    QuadraticForm,
    bias_coefficients,
    envelope_tail,
)
from .signals import StateSpace, certify_decay, spectral_radius

__all__ = [
    "BartlettSelection",
    "BoundContext",
    "Certificate",
    "CONDITION_PARTS",
    "GAUSSIAN",
    "NoiseAssumption",
    "PERIODOGRAM_NOTE",
    "bartlett_bias_closed_form",
    "check_conditions",
    "check_all_estimator_conditions",
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
PERIODOGRAM_NOTE = "periodogram norm envelope is at least one"

# the furthest lag a covariance tail or decay envelope is searched to
_LAG_BUDGET = 1_000_000


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
        A state-space model is certified at every rate above its spectral
        radius, so when rho lies between that radius and rho_m, the pair
        ``signals.certify_decay(model, rho)`` stands in for (gamma_m, rho_m).
        """

        def check_lags(depth: int) -> None:
            norms = np.linalg.svd(self.model.autocov_stack(depth), compute_uv=False)[:, 0]
            failing = np.flatnonzero(norms > gamma * rho ** np.arange(depth + 1) + 1e-9)
            if failing.size:
                raise ValueError(f"decay envelope fails against the model at lag {failing[0]}")

        check_lags(64)
        gamma_m, rho_m = self.model.decay()
        if rho_m > rho and isinstance(self.model, StateSpace) and spectral_radius(self.model.a) < rho:
            at_rate = certify_decay(self.model, rho)
            gamma_m, rho_m = at_rate.gamma, at_rate.rho
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
        """Log budget at failure probability delta: the reciprocal envelope's second demand.

        Every certificate covers the unit sphere of the channel space with
        ``COVER_BASE^(2 channels)`` points.  With a ``truncation`` width T the
        certificate also holds uniformly over frequency, through a cover of
        K = 5 T^2 frequencies, and the budget is log(K) plus the budget at
        delta / 2.

        That frequency term is not yet proven.  A union bound over K points
        asks each one for failure delta / (2 K), a budget of
        log(K) / rate plus the budget at delta / 2: the log K term needs the
        factor 1 / rate.  Read as a union bound, the undivided log K proves a
        failure probability of K^(1 - rate) delta / 2, not delta; under
        Gaussian constants at T = 32 that is about 1960 delta.  Until that
        term is divided by the rate, the certificates uniform over frequency
        (``worst_case_error_bound``, ``data_driven_factor`` and the
        ``worst_case`` condition) are unproven.
        """
        cover = COVER_BASE ** (2 * self.channels)
        if truncation is None:
            return self.assumption.log_budget(delta, cover)
        if not truncation >= 1:
            raise ValueError("truncation width must be at least one")
        return math.log(FREQUENCY_COVER_FACTOR * float(truncation) ** 2) + self.assumption.log_budget(delta / 2.0, cover)


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
    """Envelope over ||A||_2, ||A||_F^2 and every per-diagonal norm pair."""
    stats = form.diagonal_stats
    return max(
        form.spectral_norm,
        form.frobenius_norm ** 2,
        float(stats.sup_norms.max()),
        float(stats.squared_l2_norms.max()),
    )


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
    xi: float | None = None,
    envelope: float | None = None,
    truncation: int | None = None,
    bias: BiasCoefficients | None = None,
) -> Certificate:
    """Verdict for one sufficient error condition of the general framework.

    Parts: ``pointwise`` (concentration at a single frequency, needs ``xi``,
    the dense form or an ``envelope``), ``worst_case`` (concentration uniform
    over frequency, needs ``envelope``/``truncation`` or the dense form),
    ``bias`` (diagonal sums close to one out to the tail cutoff), and the
    conjunctions ``pointwise_total``/``worst_total`` whose conclusions hold at
    accuracy 2 * eps with probability 1 - delta.
    """
    if part not in CONDITION_PARTS:
        raise ValueError(f"unknown condition part {part!r}")
    if part in _TOTALS:
        first = check_conditions(
            _TOTALS[part], eps, delta, ctx, form=form, xi=xi, envelope=envelope, truncation=truncation
        )
        second = check_conditions("bias", eps, delta, ctx, form=form, bias=bias)
        return _conjunction(f"{part}_condition", first, second, eps, delta)
    if part == "pointwise":
        name, value = "xi", xi
        if xi is None and form is not None:
            value = max(form.spectral_norm, form.frobenius_norm ** 2)
        elif xi is None:
            if envelope is None:
                raise ValueError("pointwise check needs xi, the dense form or an envelope")
            # the envelope dominates xi, so it can stand in for it
            name, value = "envelope", envelope
        demand = ctx.assumption.demand(eps, ctx.phi_inf) * ctx.budget(delta)
        return Certificate(
            "pointwise_condition",
            holds=bool(1.0 / value >= demand),
            epsilon=eps,
            delta=delta,
            inputs=((name, value), ("demand", demand)),
        )
    if part == "worst_case":
        if envelope is None or truncation is None:
            if form is None:
                raise ValueError("worst-case check needs envelope and truncation or the dense form")
            envelope = envelope_from_form(form)
            truncation = form.truncation_width
        demand = ctx.assumption.demand(eps / 2.0, ctx.phi_inf) * ctx.budget(delta, truncation)
        return Certificate(
            "worst_case_condition",
            holds=bool(1.0 / envelope >= demand),
            epsilon=eps,
            delta=delta,
            inputs=_inputs(envelope=envelope, truncation=truncation, demand=demand),
        )
    # bias
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


def pointwise_error_bound(xi: float, delta: float, ctx: BoundContext) -> Certificate:
    """Deviation bound at a single frequency holding with probability 1 - delta."""
    value = ctx.assumption.deviation(xi, ctx.budget(delta), ctx.phi_inf)
    return Certificate("pointwise_bound", value=value, delta=delta, inputs=_inputs(xi=xi))


def worst_case_error_bound(envelope: float, truncation, delta: float, ctx: BoundContext) -> Certificate:
    """Deviation bound uniform over frequency holding with probability 1 - delta."""
    value = 2.0 * ctx.assumption.deviation(envelope, ctx.budget(delta, truncation), ctx.phi_inf)
    return Certificate(
        "worst_case_bound",
        value=value,
        delta=delta,
        inputs=_inputs(envelope=envelope, truncation=truncation),
    )


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
    # the powers equal the scalar rho ** k of a per-lag sum: for one numpy
    # integer k numpy returns rho at k = 1 and rho * rho at k = 2, which its
    # array power loop need not
    powers = rho ** np.arange(truncation, dtype=float)
    powers[1:3] = [rho, rho * rho][: truncation - 1]
    # |1 - b[k]| rho^|k| for k = -(truncation - 1) .. truncation - 1, built in place
    terms = 1.0 - bias.on_lags(truncation)
    np.abs(terms, out=terms)
    terms[: truncation - 1] *= powers[:0:-1]
    terms[truncation - 1 :] *= powers
    # accumulate adds left to right, in the order of a sequential sum; np.sum adds pairwise
    body = np.add.accumulate(terms, out=terms)[-1]
    value = gamma * body + envelope_tail(gamma, rho, truncation)
    return Certificate(
        "bias_bound_geometric",
        value=float(value),
        inputs=_inputs(truncation=truncation, gamma=gamma, rho=rho),
    )


def data_driven_factor(envelope: float, truncation, delta: float, ctx: BoundContext) -> float:
    """The multiplier of the self-referential worst-case bound (worst bound / phi_inf)."""
    return 2.0 * ctx.assumption.deviation(envelope, ctx.budget(delta, truncation), 1.0)


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
    """Estimator-specific sufficient conditions on the closed-form quantities.

    The bias part is the general bias test on ``closed_form_bias(spec, n)``
    and the family's ``bias_condition``, what it asks beyond that test.  For
    the periodogram variants only the bias condition is attainable (their
    norm envelope never drops below one); concentration parts come back
    unavailable.
    """
    if part not in CONDITION_PARTS:
        raise ValueError(f"unknown condition part {part!r}")
    n = int(num_samples)
    statement = f"{spec.kind}.{part}_condition"
    if part in _TOTALS:
        first = check_estimator_conditions(spec, n, _TOTALS[part], eps, delta, ctx)
        second = check_estimator_conditions(spec, n, "bias", eps, delta, ctx)
        return _conjunction(statement, first, second, eps, delta)
    params = spec.certificate_params(n)
    if params is None and part != "bias":
        return Certificate(
            statement,
            available=False,
            epsilon=eps,
            delta=delta,
            note=PERIODOGRAM_NOTE,
        )
    if part != "bias":
        cert = check_conditions(part, eps, delta, ctx, envelope=params.envelope, truncation=params.truncation)
        return replace(cert, statement=statement)
    # the general test on the closed-form diagonal sums, and what the family asks beyond it
    general = check_conditions("bias", eps, delta, ctx, bias=closed_form_bias(spec, n))
    cutoff = dict(general.inputs)["cutoff"]
    holds = general.holds and spec.bias_condition(n, cutoff, eps, ctx.r1_norm)
    # a periodogram's own condition is stated in the cutoff alone, and its row records only that
    inputs = general.inputs[:1] if params is None else general.inputs
    return replace(general, statement=statement, holds=bool(holds), inputs=inputs)


def check_all_estimator_conditions(
    spec, num_samples: int, eps: float, delta: float, ctx: BoundContext
) -> list[Certificate]:
    """``check_estimator_conditions`` for every part, in ``CONDITION_PARTS`` order.

    Each total is the conjunction of the rows already built for its two
    parts, so the bias part is computed once.
    """
    rows = {
        part: check_estimator_conditions(spec, num_samples, part, eps, delta, ctx)
        for part in CONDITION_PARTS
        if part not in _TOTALS
    }
    for part, base in _TOTALS.items():
        rows[part] = _conjunction(f"{spec.kind}.{part}_condition", rows[base], rows["bias"], eps, delta)
    return [rows[part] for part in CONDITION_PARTS]


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


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _bounded_minimum(func, low: float, high: float, xatol: float) -> float:
    """Brent's bounded scalar minimizer (golden section with parabolic steps).

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 5,
    in the arrangement of scipy's ``minimize_scalar(method="bounded")``, so
    it visits the same points and returns the same abscissa bit for bit.
    Stops after 500 objective calls at the latest.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = low, high
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    calls = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        calls += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if calls >= 500:
            break
    return xf


def optimize_bartlett_m(
    num_samples: int, delta: float, ctx: BoundContext, divisors_only: bool = True
) -> BartlettSelection:
    """Pick the block length minimizing concentration plus closed-form bias.

    With ``divisors_only`` the search is exhaustive over the divisors of the
    sample count, ties broken toward the smaller block; otherwise the block
    length is optimized as a real number in [1, num_samples] (used to study
    how the optimum scales with the sample count).
    """
    if ctx.decay is None:
        raise ValueError("optimizer needs a decay envelope on the context")
    gamma, rho = ctx.decay
    n = int(num_samples)
    if n < 1:
        raise ValueError("sample count must be positive")

    def total(m: float) -> float:
        concentration = worst_case_error_bound(m / n, m, delta, ctx).value
        return concentration + bartlett_bias_closed_form(gamma, rho, m)

    if divisors_only:
        best_m, best_value = 1, total(1.0)
        for m in _divisors(n)[1:]:
            value = total(float(m))
            if value < best_value:
                best_m, best_value = m, value
        return BartlettSelection(best_m, best_value, True)
    grid = np.geomspace(1.0, n, 256)
    coarse = float(grid[np.argmin([total(m) for m in grid])])
    low, high = max(1.0, coarse / 2.0), min(float(n), coarse * 2.0)
    candidates = [1.0, coarse]
    if high > low:
        candidates.append(_bounded_minimum(total, low, high, xatol=1e-6))
    best = min(candidates, key=total)
    return BartlettSelection(best, total(best), False)
