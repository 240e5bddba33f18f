"""Three-term decomposition pricer: reductions, identities, regressions."""
import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _frozen as fz
from _terms import gn_term
from conftest import make_params
from svj import bench, bs_kernel, heston_moments, jump_laws, quadrature
from svj.approx_pricer import (_LEWIS_TAIL, Contract, MaturityTerms,
                               ModelParams, PriceResult, _lewis_cutoff,
                               _price_strikes, maturity_terms, price_approx,
                               price_smile)
from svj.errors import (PRICING_ERRORS, DomainError, ParamError,
                        SeriesTruncationError)
from svj.heston_moments import HestonParams
from svj.jump_laws import JumpLaw, Kou, LogNormal, LogUniform
from svj.reference_pricer import price_reference, price_reference_smile

ATM = Contract(s0=100.0, strike=100.0, maturity=0.3)


def test_terms_compose():
    res = price_approx(make_params(nu=0.05, rho=-0.2), ATM)
    assert res.price == pytest.approx(
        res.base_term + res.r0_term + res.u0_term, abs=1e-15)
    assert res.truncation.tail_mass <= res.truncation.tolerance


def test_footnote_atm_regression():
    # regression pin of this implementation (not an external oracle)
    res = price_approx(make_params(nu=0.05, rho=-0.2), ATM)
    assert res.price == pytest.approx(10.871517802292965, abs=1e-12)


def test_series_is_walked_once(series_calls):
    """One truncation, which builds the weights as one array (no
    poisson_pmf call); one lognormal_shift call for all terms; one v0,
    u0, r0."""
    params = make_params(nu=0.3, rho=-0.5, lam=0.5)
    res = price_approx(params, Contract(s0=100.0, strike=90.0, maturity=2.0))
    assert res.truncation.n_max > 5
    assert series_calls == {"truncate_series": 1, "lognormal_shift": 1,
                            "avg_expected_variance_v0": 1, "u0": 1, "r0": 1}


def test_smile_builds_maturity_terms_once(series_calls):
    """Ten strikes of one maturity share one truncation, one
    lognormal_shift call and one v0, u0, r0."""
    params = make_params(nu=0.3, rho=-0.5, lam=0.5)
    out = price_smile(params, 100.0, [float(k) for k in range(80, 130, 5)],
                      2.0)
    assert len(out) == 10 and out[0][1].truncation.n_max > 5
    assert series_calls == {"truncate_series": 1, "lognormal_shift": 1,
                            "avg_expected_variance_v0": 1, "u0": 1, "r0": 1}


def test_no_public_callable_takes_maturity_terms():
    """The strike-free terms stay inside the smile pass: nothing in
    svj.__all__ takes a MaturityTerms, and neither it nor maturity_terms
    is exported."""
    import svj
    assert not {"MaturityTerms", "maturity_terms"} & set(svj.__all__)
    for name in svj.__all__:
        obj = getattr(svj, name)
        if not callable(obj):
            continue
        try:
            sig = inspect.signature(obj)
        except (TypeError, ValueError):      # no signature to inspect
            continue
        for param in sig.parameters.values():
            assert param.annotation not in (MaturityTerms, "MaturityTerms"), \
                f"{name}({param.name})"


def test_float32_maturity_prices_as_a_float():
    """An np.float32 maturity prices as its float value does; it once
    carried float32 rounding into the series truncation, which then never
    met its tolerance."""
    params = make_params(nu=0.05, rho=-0.2)
    want = price_smile(params, 100.0, [90.0, 110.0], 0.25)
    assert price_smile(params, 100.0, [90.0, 110.0], np.float32(0.25)) == want


@pytest.mark.parametrize("lam, big_t, error", [
    # lambda T = 5e5: past the series' memory guard, N_MAX_CAP terms
    (1e5, 5.0, SeriesTruncationError),
    (0.05, 0.0, ParamError)])
def test_smile_pairs_every_strike_with_a_terms_failure(lam, big_t, error):
    """Every valid strike gets the terms failure; K=-5 keeps its own
    Contract ParamError."""
    params = make_params(nu=0.05, rho=-0.2, lam=lam)
    out = price_smile(params, 100.0, [110.0, 90.0, -5.0, 100.0], big_t)
    assert [k for k, _ in out] == [-5.0, 90.0, 100.0, 110.0]
    assert type(out[0][1]) is ParamError
    assert all(isinstance(exc, error) for _, exc in out[1:])


@pytest.mark.parametrize("big_t, error", [(0.3, None), (1e-26, DomainError)])
def test_smile_pairs_invalid_strike_and_degenerate_maturity(big_t, error):
    """K=-5 gets its own Contract ParamError; a degenerate vol*sqrt(T)
    fails every other strike with DomainError, never with a NaN."""
    params = make_params(nu=0.05, rho=-0.2)
    out = price_smile(params, 100.0, [90.0, 100.0, -5.0], big_t)
    assert [k for k, _ in out] == [-5.0, 90.0, 100.0]
    invalid = out[0][1]
    assert type(invalid) is ParamError and "strike" in str(invalid)
    for _, res in out[1:]:
        if error is None:
            assert math.isfinite(res.price)
        else:
            assert type(res) is error


def test_smiles_put_nan_strikes_last():
    """Both smile pricers return ascending strikes with a NaN strike
    last, where sorted() alone would leave it in place."""
    params = make_params(nu=0.05, rho=-0.2)
    for smile in (price_smile, price_reference_smile):
        out = smile(params, 100.0, [100.0, math.nan, 90.0], 0.3)
        assert [k for k, _ in out[:2]] == [90.0, 100.0]
        assert math.isnan(out[2][0]) and type(out[2][1]) is ParamError


@pytest.mark.parametrize("smile", [price_smile, price_reference_smile])
def test_smile_refuses_a_numpy_nan_strike(smile):
    """A np.float32 NaN strike gets its own ParamError, as a float NaN
    does, and the other strikes keep finite prices."""
    params = make_params(nu=0.05, rho=-0.2)
    out = smile(params, 100.0, [90.0, np.float32("nan"), 110.0], 0.3)
    [bad] = [res for k, res in out if k != k]
    assert type(bad) is ParamError and "strike must be finite" in str(bad)
    good = [res for k, res in out if k == k]
    assert len(good) == 2
    assert all(math.isfinite(getattr(res, "price", res)) for res in good)


def _contract_pairs(s0, strikes, big_t) -> list:
    """The per-strike reference of a smile's validation: (strike, error
    type, message) per strike, ascending with NaN strikes last in their
    given order, the error None where the Contract is valid."""
    ordered = (sorted(k for k in strikes if k == k)
               + [k for k in strikes if k != k])
    out = []
    for k in ordered:
        try:
            Contract(s0=s0, strike=k, maturity=big_t)
        except ParamError as exc:
            out.append((k, type(exc), str(exc)))
        else:
            out.append((k, None, None))
    return out


_ODD_STRIKES = [math.nan, np.float32("nan"), np.float64("nan"), math.inf,
                -math.inf, np.float32("inf"), np.float64("-inf"), 0, 0.0,
                -0.0, np.float32(0.0), -5, -5.0, np.float32(-5.0)]
mixed_strikes = st.lists(st.one_of(
    st.floats(50.0, 200.0), st.integers(50, 200),
    st.floats(50.0, 200.0, width=32).map(np.float32),
    st.floats(50.0, 200.0).map(np.float64),
    st.sampled_from(_ODD_STRIKES),
    # duplicates across types: 100, 100.0, np.float32(100.0), ...
    st.sampled_from([100, 100.0, np.float32(100.0), np.float64(100.0)])),
    min_size=1, max_size=8)
spots = st.sampled_from([100.0, 100, math.nan, np.float32("nan"), math.inf,
                         0.0, -1.0, 0])
maturities = st.one_of(st.floats(0.1, 2.0), st.just(1),
                       st.sampled_from([math.nan, math.inf, 0.0, -0.5, 0]))


def _bits(res) -> tuple:
    """A smile entry's floats as their exact hex strings (and a
    PriceResult's truncation); an error as its type and message."""
    if isinstance(res, Exception):
        return type(res), str(res)
    if isinstance(res, PriceResult):
        return (*map(float.hex, (res.price, res.base_term, res.r0_term,
                                 res.u0_term)), res.truncation)
    return (float.hex(res),)


@st.composite
def shuffled_strikes(draw):
    """mixed_strikes plus repeats of its own entries, shuffled."""
    strikes = draw(mixed_strikes)
    repeats = draw(st.lists(st.sampled_from(strikes), max_size=4))
    return draw(st.permutations(strikes + repeats))


@pytest.mark.parametrize("smile", [price_smile, price_reference_smile])
@settings(max_examples=60, deadline=None)
@given(strikes=shuffled_strikes(), s0=spots, big_t=maturities)
# an int strike beyond the float range is a valid Contract
@example(strikes=[10**400, 100.0, -5], s0=100.0, big_t=0.3)
@example(strikes=[np.float32("inf"), 90, np.float32(100.0)], s0=100.0,
         big_t=0.3)
@example(strikes=[110.0, 90, math.nan, 110, np.float32(90.0), 0, 90.0],
         s0=100.0, big_t=0.3)
def test_smile_strike_mask_matches_per_strike_contracts(smile, strikes, s0,
                                                        big_t):
    """The smile pricers pair each strike, the same object in the same
    place (ascending, duplicates in their given order, NaN last), with
    the error of its own Contract, type and message, or with a price
    where the Contract is valid: shuffled floats, ints, np.float32 and
    np.float64, NaN, inf, 0, negatives and duplicates, and an invalid s0
    or T. Each valid strike's result is bit for bit what the valid
    strikes alone give. A valid strike beyond the float range fails the
    pass's float array, and with it every valid strike."""
    params = make_params(nu=0.05, rho=-0.2)
    want = _contract_pairs(s0, strikes, big_t)
    got = smile(params, s0, strikes, big_t)
    assert len(got) == len(want)
    overflow = any(t is None and type(k) is int and k > sys.float_info.max
                   for k, t, _ in want)
    valid = [k for k, t, _ in want if t is None]
    if valid and not overflow:
        assert ([_bits(res) for (_, res), (_, t, _) in zip(got, want)
                 if t is None]
                == [_bits(res) for _, res in smile(params, s0, valid, big_t)])
    for (k, res), (want_k, want_type, want_msg) in zip(got, want):
        assert k is want_k
        if want_type is None and overflow:
            assert type(res) is OverflowError
        elif want_type is None:
            assert not isinstance(res, Exception)
            price = getattr(res, "price", res)
            assert math.isfinite(price)
            if smile is price_smile:
                assert res == price_approx(
                    params, Contract(s0=s0, strike=k, maturity=big_t))
        else:
            assert type(res) is want_type and str(res) == want_msg


def test_price_result_fields_replace_and_value_equality():
    """PriceResult keeps its five fields in order; dataclasses.replace
    builds a changed copy, and equality is by value."""
    assert [f.name for f in dataclasses.fields(PriceResult)] == [
        "price", "base_term", "r0_term", "u0_term", "truncation"]
    res = price_approx(make_params(nu=0.05, rho=-0.2), ATM)
    twin = PriceResult(res.price, res.base_term, res.r0_term, res.u0_term,
                       res.truncation)
    assert twin == res and twin is not res
    moved = dataclasses.replace(res, price=res.price + 1.0)
    assert moved != res and moved.price == res.price + 1.0
    assert (moved.base_term, moved.truncation) == (res.base_term,
                                                   res.truncation)


@pytest.mark.parametrize("smile", [price_smile, price_reference_smile])
def test_smile_refuses_a_str_strike_as_its_contract_does(smile):
    """A str strike, which numpy would read as a number, raises the
    TypeError of its Contract."""
    params = make_params(nu=0.05, rho=-0.2)
    with pytest.raises(TypeError):
        Contract(s0=100.0, strike="100", maturity=0.3)
    with pytest.raises(TypeError):
        smile(params, 100.0, ["100"], 0.3)


def _paper_series(params, contract, mt):
    """(base, r0, u0 terms) as the paper sums them, term by term:
    p_n(lambda T) times gn_term's G_n and its two images, for n up to
    mt's truncation."""
    lam_t = params.jumps.intensity * contract.maturity
    terms = [(jump_laws.poisson_pmf(n, lam_t), gn_term(n, params, contract))
             for n in range(mt.truncation.n_max + 1)]
    return (math.fsum(p_n * g for p_n, (g, _, _) in terms),
            mt.r0 * math.fsum(p_n * g2 for p_n, (_, g2, _) in terms),
            mt.u0 * math.fsum(p_n * lg for p_n, (_, _, lg) in terms))


def _smile_grid(params):
    """price_smile over option_batch(), keyed by (maturity, strike)."""
    by_t = {}
    for c in bench.option_batch():
        by_t.setdefault(c.maturity, []).append(c.strike)
    return {(big_t, k): res for big_t, ks in by_t.items()
            for k, res in price_smile(params, bench.BATCH_S0, ks, big_t)}


@pytest.mark.parametrize("params", [
    *bench.sample_param_sets(40, seed=20240),
    make_params(nu=0.2, rho=-0.6, lam=0.0)])
def test_smile_pass_matches_scalar_terms(params):
    """The strike pass, summed with the Merton weights pi_n, against the
    paper's p_n(lambda T) G_n series term by term, and
    price_approx bit-equal to the matching price_smile entry."""
    for (big_t, strike), res in _smile_grid(params).items():
        c = Contract(s0=bench.BATCH_S0, strike=strike, maturity=big_t)
        want = _paper_series(params, c, maturity_terms(params, big_t))
        got = (res.base_term, res.r0_term, res.u0_term)
        assert got == pytest.approx(want, rel=0, abs=1e-12)
        assert res.price == pytest.approx(sum(want), rel=0, abs=1e-12)
        assert price_approx(params, c) == res


def test_base_term_uses_frozen_gn_values():
    """n=1 and n=2 mixture terms agree with the 50-digit oracle."""
    params = make_params(nu=0.05, rho=-0.2)
    g1, _, _ = gn_term(1, params, ATM)
    g2, _, _ = gn_term(2, params, ATM)
    assert g1 == pytest.approx(fz.GN1_FIG1_K100, rel=1e-12)
    assert g2 == pytest.approx(fz.GN2_FIG1_K100, rel=1e-12)


def test_no_jumps_reduces_to_heston_decomposition():
    params = make_params(nu=0.2, rho=-0.6, lam=0.0)
    res = price_approx(params, ATM)
    x = math.log(100.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    want = (bs_kernel.bs_price(x, v0, 100.0, 0.001, 0.3)
            + heston_moments.r0(params.heston, 0.3)
            * bs_kernel.gamma2_bs(x, v0, 100.0, 0.001, 0.3)
            + heston_moments.u0(params.heston, 0.3)
            * bs_kernel.lambda_gamma_bs(x, v0, 100.0, 0.001, 0.3))
    assert res.price == pytest.approx(want, abs=1e-14)
    assert res.truncation.n_max == 0


def test_no_jumps_no_volofvol_is_bs():
    params = make_params(nu=0.0, rho=0.0, lam=0.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    want = bs_kernel.bs_price(math.log(100.0), v0, 100.0, 0.001, 0.3)
    assert price_approx(params, ATM).price == pytest.approx(want, abs=1e-12)


def test_lognormal_closed_route_matches_generic_quadrature():
    """Force the generic path with a Kou law tuned to mimic nothing in
    particular; instead check the lognormal closed route against
    gn_generic directly."""
    params = make_params(nu=0.05, rho=-0.2)
    x = math.log(100.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    k = jump_laws.compensator_k(params.jumps)
    r_hat = params.r - params.jumps.intensity * k
    for n in (0, 1, 2, 5):
        g, _, _ = gn_term(n, params, ATM)
        want = math.exp(-params.jumps.intensity * k * 0.3) * jump_laws.gn_generic(
            x, n, params.jumps, v0, r_hat, 100.0, 0.3)
        assert g == pytest.approx(want, rel=1e-10)


def test_kou_and_loguniform_against_reference():
    for variant in (Kou(p=0.4, eta1=10.0, eta2=5.0),
                    LogUniform(a=-0.3, b=0.2)):
        params = ModelParams(
            heston=HestonParams(kappa=1.5, theta=0.2, nu=0.05, rho=-0.2,
                                sigma0_sq=0.25),
            jumps=JumpLaw(intensity=0.1, variant=variant), r=0.001)
        for strike in (90.0, 100.0, 115.0):
            c = Contract(s0=100.0, strike=strike, maturity=0.3)
            approx = price_approx(params, c).price
            ref = price_reference(params, c)
            assert abs(approx - ref) < 5e-5


def test_price_smile_sorted_and_exception_capture():
    params = make_params(nu=0.05, rho=-0.2)
    out = price_smile(params, 100.0, [110.0, 90.0, 100.0], 0.3)
    assert [k for k, _ in out] == [90.0, 100.0, 110.0]
    assert all(res.price > 0.0 for _, res in out)


def test_price_smile_takes_array_strikes():
    params = make_params(nu=0.05, rho=-0.2)
    strikes = [100.0, 90.0]
    assert (price_smile(params, 100.0, np.array(strikes), 0.3)
            == price_smile(params, 100.0, strikes, 0.3))
    with pytest.raises(ParamError):
        price_smile(params, 100.0, np.array([]), 0.3)


def test_deep_strikes_stay_sane():
    params = make_params(nu=0.05, rho=-0.2)
    deep_itm = price_approx(params, Contract(s0=100.0, strike=5.0,
                                             maturity=0.3)).price
    intrinsic = 100.0 - 5.0 * math.exp(-0.001 * 0.3)
    assert deep_itm == pytest.approx(intrinsic, rel=5e-3)
    deep_otm = price_approx(params, Contract(s0=100.0, strike=400.0,
                                             maturity=0.3)).price
    assert 0.0 <= deep_otm < 0.2


def test_validation():
    with pytest.raises(ParamError):
        Contract(s0=-1.0, strike=100.0, maturity=0.3)
    with pytest.raises(ParamError):
        Contract(s0=100.0, strike=100.0, maturity=-0.3)
    params = make_params(nu=0.05, rho=-0.2)
    with pytest.raises(ParamError):
        ModelParams(heston=params.heston, jumps=params.jumps, r=-0.01)


# ---------------------------------------------------------------------------
# Kou and LogUniform: one Lewis integral per maturity

FOOTNOTE_HESTON = HestonParams(kappa=1.5, theta=0.2, nu=0.05, rho=-0.2,
                               sigma0_sq=0.25)


def _generic(variant, lam, heston=FOOTNOTE_HESTON, r=0.001):
    return ModelParams(heston=heston,
                       jumps=JumpLaw(intensity=lam, variant=variant), r=r)


kou_laws = st.builds(Kou, p=st.floats(0.0, 1.0), eta1=st.floats(1.01, 50.0),
                     eta2=st.floats(0.5, 50.0))
loguniform_laws = st.builds(
    lambda a, w: LogUniform(a=a, b=a + w),
    st.floats(-1.0, 0.5), st.floats(1e-3, 1.0))
lognormal_laws = st.builds(LogNormal, mu_j=st.floats(-0.5, 0.5),
                           sigma_j=st.floats(0.0, 0.8))


@settings(max_examples=150, deadline=None)
@given(variant=st.one_of(kou_laws, loguniform_laws, lognormal_laws),
       lam_t=st.floats(0.0, 5.0), big_t=st.floats(0.1, 5.0),
       kappa=st.floats(0.1, 5.0), theta=st.floats(0.01, 0.5),
       sigma0_sq=st.floats(0.01, 0.5), rho=st.floats(-1.0, 1.0),
       r=st.floats(0.0, 0.1), strike=st.floats(50.0, 200.0))
# two contracts whose reference, on u = t/sqrt(E int sigma^2), met an
# interval where the Gauss and Kronrod sums agree on an aliased value:
# off by 1.6e-9 (lambda k T = 31) and 3.6e-9 (K = 200, T = 0.1)
@example(variant=Kou(p=0.13566937233894458, eta1=1.01, eta2=1.1),
         lam_t=2.3847132515612883, big_t=1.1352976591466486,
         kappa=0.33277651371505407, theta=0.13566937233894458,
         sigma0_sq=0.01, rho=0.0, r=0.0, strike=50.0)
@example(variant=LogUniform(a=0.0, b=0.8530595171530485), lam_t=3.56640625,
         big_t=0.1015625, kappa=0.1, theta=0.5, sigma0_sq=0.01, rho=0.0,
         r=0.0625, strike=200.0)
def test_generic_laws_exact_at_zero_volofvol(variant, lam_t, big_t, kappa,
                                             theta, sigma0_sq, rho, r,
                                             strike):
    """At nu = 0 the decomposition is exact: its price is the Fourier
    reference of the same model, for every law, lambda T and maturity."""
    heston = HestonParams(kappa=kappa, theta=theta, nu=0.0, rho=rho,
                          sigma0_sq=sigma0_sq)
    params = _generic(variant, lam_t / big_t, heston, r)
    c = Contract(s0=100.0, strike=strike, maturity=big_t)
    res = price_approx(params, c)
    assert res.r0_term == 0.0 and res.u0_term == 0.0
    assert res.price == pytest.approx(price_reference(params, c),
                                      rel=0, abs=1e-9)


@settings(max_examples=400, deadline=None)
@given(law=lognormal_laws, lam_t=st.floats(0.0, 300.0),
       big_t=st.floats(0.1, 5.0), strike=st.floats(50.0, 200.0))
def test_lognormal_truncation_bounds_dropped_base(law, lam_t, big_t, strike):
    """Each term of the Merton series is pi_n times a call price <= S0, so
    cutting it where the Poisson(lambda (1+k) T) tail mass is tol lowers
    the base term by at most S0 tail_mass."""
    params = _generic(law, lam_t / big_t)
    c = Contract(s0=100.0, strike=strike, maturity=big_t)
    full = price_approx(params, c, tol=1e-13)
    for tol in (1e-4, 1e-6):
        res = price_approx(params, c, tol=tol)
        dropped = full.base_term - res.base_term
        assert 0.0 <= dropped <= c.s0 * res.truncation.tail_mass


merton_smiles = st.fixed_dictionaries({
    "law": lognormal_laws,
    # lambda (1 + k) T: the Merton series runs past numpy's pairwise
    # block of 8 terms
    "mean_jumps": st.floats(5.0, 40.0),
    "big_t": st.floats(0.1, 5.0),
    "strikes": st.lists(st.floats(50.0, 200.0), min_size=2, max_size=10,
                        unique=True),
    "order": st.randoms(use_true_random=False)})


def _merton_params(case):
    law = case["law"]
    growth = 1.0 + jump_laws.compensator_k(JumpLaw(intensity=1.0, variant=law))
    return _generic(law, case["mean_jumps"] / (growth * case["big_t"]))


@settings(max_examples=100, deadline=None)
@given(case=merton_smiles)
def test_smile_entries_do_not_depend_on_the_other_strikes(case):
    """Over a long Merton series, a strike's PriceResult is the same bits
    in any smile that holds it: the whole smile, the strikes shuffled,
    split in two, or alone, and price_approx of its Contract."""
    params, big_t = _merton_params(case), case["big_t"]
    strikes = case["strikes"]
    whole = dict(price_smile(params, 100.0, strikes, big_t))
    assert whole[strikes[0]].truncation.n_max >= 8
    shuffled = list(strikes)
    case["order"].shuffle(shuffled)
    half = len(shuffled) // 2
    for part in (shuffled, shuffled[:half], shuffled[half:]):
        assert dict(price_smile(params, 100.0, part, big_t)) == {
            k: whole[k] for k in part}
    for k in strikes:
        assert price_smile(params, 100.0, [k], big_t) == [(k, whole[k])]
        c = Contract(s0=100.0, strike=k, maturity=big_t)
        assert price_approx(params, c) == whole[k]


@settings(max_examples=100, deadline=None)
@given(case=merton_smiles)
def test_smile_base_term_never_drops_as_tol_shrinks(case):
    """Over a long Merton series, a shorter tail tolerance adds terms and
    never lowers any strike's base term."""
    params, big_t = _merton_params(case), case["big_t"]
    last = None
    for tol in (1e-4, 1e-6, 1e-9, 1e-12, 1e-14):
        mt = maturity_terms(params, big_t, tol=tol)
        assert mt.truncation.n_max >= 8
        base = [res.base_term for res in
                _price_strikes(mt, 100.0, case["strikes"])]
        if last is not None:
            assert all(b >= a for a, b in zip(last, base))
        last = base


def test_loguniform_at_lambda_t_point_three_prices():
    """LogUniform(-0.3, 0.2) at lambda T = 0.3 needs n >= 9 series terms,
    where the Irwin-Hall density cancels; the Fourier route prices it.
    v0 depends on neither nu nor rho, so base_term is the nu = 0 price."""
    params = _generic(LogUniform(a=-0.3, b=0.2), 0.3)
    c = Contract(s0=100.0, strike=100.0, maturity=1.0)
    res = price_approx(params, c)
    assert all(math.isfinite(v) for v in
               (res.price, res.base_term, res.r0_term, res.u0_term))
    assert res.price == res.base_term + res.r0_term + res.u0_term
    flat = _generic(LogUniform(a=-0.3, b=0.2), 0.3,
                    dataclasses.replace(FOOTNOTE_HESTON, nu=0.0))
    assert res.base_term == pytest.approx(price_reference(flat, c),
                                          rel=0, abs=1e-9)


@pytest.mark.parametrize("variant", [Kou(p=0.4, eta1=10.0, eta2=5.0),
                                     Kou(p=0.7, eta1=3.0, eta2=2.0),
                                     LogUniform(a=-0.3, b=0.2),
                                     LogUniform(a=-0.1, b=0.05)])
@pytest.mark.parametrize("big_t", [0.25, 1.0, 3.0])
def test_fourier_terms_match_convolution_route(variant, big_t):
    """At lambda T = 0.03, where the convolution densities are exact, each
    term of the Fourier route matches the series of gn_generic
    quadratures. The Fourier route sums the whole series; the default
    tail of 1e-12 times G_n ~ S0 (1 + k)^n would be ~1e-10 itself, so the
    convolution series is cut at 1e-15."""
    params = _generic(variant, 0.03 / big_t, make_params(nu=0.3, rho=-0.6).heston)
    mt = maturity_terms(params, big_t, tol=1e-15)
    strikes = [80.0, 100.0, 125.0]
    for strike, res in price_smile(params, 100.0, strikes, big_t):
        c = Contract(s0=100.0, strike=strike, maturity=big_t)
        want = _paper_series(params, c, mt)
        got = (res.base_term, res.r0_term, res.u0_term)
        assert got == pytest.approx(want, rel=0, abs=1e-10)


@pytest.mark.parametrize("variant", [Kou(p=0.4, eta1=10.0, eta2=5.0),
                                     LogUniform(a=-0.3, b=0.2)])
def test_generic_degenerate_and_tiny_vol(variant):
    """A degenerate v0 sqrt(T) fails every strike with DomainError; a tiny
    but non-degenerate one prices or raises a pricing error, never NaN."""
    params = _generic(variant, 0.1)
    strikes = [90.0, 100.0, 110.0]
    for _, res in price_smile(params, 100.0, strikes, 1e-26):
        assert type(res) is DomainError
    for big_t in (1e-20, 1e-12, 1e-6):
        for _, res in price_smile(params, 100.0, strikes, big_t):
            if isinstance(res, Exception):
                assert isinstance(res, PRICING_ERRORS)
            else:
                assert all(math.isfinite(v) for v in
                           (res.price, res.base_term, res.r0_term,
                            res.u0_term))


@pytest.mark.parametrize("variant", [Kou(p=0.4, eta1=10.0, eta2=5.0),
                                     LogUniform(a=-0.3, b=0.2)])
def test_generic_laws_build_no_term_inputs(series_calls, variant):
    """A Kou or LogUniform maturity reports its Poisson(lambda T)
    truncation, but builds no per-term inputs: no lognormal_shift call,
    no vol or rate arrays."""
    params = _generic(variant, 0.5)
    out = price_smile(params, 100.0, [90.0, 100.0, 110.0], 2.0)
    assert series_calls == {"truncate_series": 1,
                            "avg_expected_variance_v0": 1, "u0": 1, "r0": 1}
    assert out[0][1].truncation == jump_laws.truncate_series(0.5 * 2.0)[0]
    mt = maturity_terms(params, 2.0)
    assert mt.vol is None and mt.rate is None


def test_generic_smile_is_one_quadrature(monkeypatch):
    """Ten strikes of a Kou law share one adaptive integration and make no
    per-term convolution quadrature."""
    calls = {"gk15_adaptive": 0, "gn_generic": 0}

    def count(module, name):
        original = getattr(module, name)

        def wrapped(*a, **kw):
            calls[name] += 1
            return original(*a, **kw)
        monkeypatch.setattr(module, name, wrapped)

    count(quadrature, "gk15_adaptive")
    count(jump_laws, "gn_generic")
    params = _generic(Kou(p=0.4, eta1=10.0, eta2=5.0), 0.5)
    out = price_smile(params, 100.0, [float(k) for k in range(80, 130, 5)],
                      2.0)
    assert len(out) == 10
    assert all(math.isfinite(res.price) for _, res in out)
    assert calls == {"gk15_adaptive": 1, "gn_generic": 0}


def test_generic_integrations_take_one_round(monkeypatch):
    """On u = U s^2 the first 16 pieces resolve the Lewis weight's poles
    at u = +-i/2: every Kou and LogUniform integration of this panel
    meets its tolerance in one round, one call of its integrand."""
    rounds = []
    original = quadrature.gk15_adaptive

    def wrapped(f, a, b, config):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)
        res = original(counted, a, b, config)
        rounds.append(calls[0])
        return res
    monkeypatch.setattr(quadrature, "gk15_adaptive", wrapped)

    laws = [JumpLaw(0.45, Kou(p=0.4, eta1=10.0, eta2=5.0)),
            JumpLaw(0.25, Kou(p=0.3, eta1=4.0, eta2=3.0)),
            JumpLaw(0.1, Kou(p=0.6, eta1=20.0, eta2=10.0)),
            JumpLaw(0.5, Kou(p=0.7, eta1=3.0, eta2=2.0)),
            JumpLaw(0.3, LogUniform(a=-0.3, b=0.2)),
            JumpLaw(0.03, LogUniform(a=-0.1, b=0.05)),
            JumpLaw(0.02, LogUniform(a=-0.4, b=0.3))]
    for law in laws:
        for nu, rho in ((0.05, -0.2), (0.5, -0.8)):
            heston = dataclasses.replace(FOOTNOTE_HESTON, nu=nu, rho=rho)
            params = ModelParams(heston=heston, jumps=law, r=0.001)
            for big_t in (0.25, 0.5, 1.0, 2.0):
                out = price_smile(params, 100.0, [80.0, 100.0, 125.0], big_t)
                assert all(math.isfinite(res.price) for _, res in out)
    assert rounds == [1] * 56


@pytest.mark.parametrize("variant", [Kou(p=0.4, eta1=10.0, eta2=5.0),
                                     Kou(p=0.9, eta1=1.05, eta2=2.0),
                                     LogUniform(a=-0.3, b=0.2),
                                     LogUniform(a=-1.0, b=0.0),
                                     LogNormal(mu_j=-0.05, sigma_j=0.1),
                                     LogNormal(mu_j=0.0171, sigma_j=0.299)])
@pytest.mark.parametrize("lam_t", [10.0, 50.0, 100.0, 150.0, 300.0])
def test_generic_laws_exact_at_large_lambda_t(variant, lam_t):
    """At nu = 0 the decomposition is the Fourier reference of the same
    model for lambda T far past the Hypothesis test's 5: the Lewis route
    for Kou and LogUniform, Merton's series for LogNormal."""
    heston = dataclasses.replace(FOOTNOTE_HESTON, nu=0.0)
    for big_t in (0.1, 1.0, 5.0):
        params = _generic(variant, lam_t / big_t, heston)
        for strike in (80.0, 100.0, 125.0):
            c = Contract(s0=100.0, strike=strike, maturity=big_t)
            assert price_approx(params, c).price == pytest.approx(
                price_reference(params, c), rel=0, abs=1e-9)


def _sampled_laws(rng, n):
    """n (law, v0^2 T, T) cases over all three laws: lambda T and v0^2 T
    log-uniform over [1e-3, 300] and [1e-4, 5]."""
    for i in range(n):
        if i % 3 == 0:
            variant = LogNormal(mu_j=rng.uniform(-0.5, 0.5),
                                sigma_j=rng.uniform(0.0, 0.8))
        elif i % 3 == 1:
            variant = Kou(p=rng.uniform(0.0, 1.0),
                          eta1=1.0 + 10.0 ** rng.uniform(-3, 1.7),
                          eta2=10.0 ** rng.uniform(-1, 1.7))
        else:
            a = rng.uniform(-1.0, 0.5)
            variant = LogUniform(a=a, b=a + 10.0 ** rng.uniform(-6, 0.3))
        big_t = rng.uniform(0.1, 5.0)
        law = JumpLaw(intensity=10.0 ** rng.uniform(-3, math.log10(300)) / big_t,
                      variant=variant)
        yield law, 10.0 ** rng.uniform(-4, math.log10(5)), big_t


def test_lewis_cutoff_meets_its_tail_bound():
    """The returned U satisfies its own bound, B (U^2 + 1/a + 5/4) /
    (2 a U) e^(-a U^2) <= _LEWIS_TAIL, a = v0^2 T / 2, with B from the
    characteristic function at -i/2. A fixed count of fixed-point steps
    stopped short of it in nearly every case of such a sample."""
    for law, var_t, big_t in _sampled_laws(np.random.default_rng(20), 20000):
        big_u = _lewis_cutoff(law, var_t, big_t)
        a = 0.5 * var_t
        lam_t = law.intensity * big_t
        half = jump_laws.jump_char_fn(law, -0.5j).real
        log_b = lam_t * (half - 1.0) - 0.5 * lam_t * jump_laws.compensator_k(law)
        log_bound = (log_b - a * big_u ** 2
                     + math.log((big_u ** 2 + 1.0 / a + 1.25) / (2.0 * a * big_u)))
        assert big_u >= 1.0
        assert log_bound <= math.log(_LEWIS_TAIL), (law, var_t, big_t, big_u)
