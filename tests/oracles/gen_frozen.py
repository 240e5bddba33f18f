"""Regenerate tests/_frozen.py with mpmath at 50 digits.

Every constant is computed from first principles in mpmath arithmetic
(quadrature of definitions, high-order numerical derivatives, an
independent complex-arithmetic Fourier pricer), never by importing the
package under test. Run from the repo root:

    python3 tests/oracles/gen_frozen.py
"""
import mpmath as mp

mp.mp.dps = 50

OUT = "tests/_frozen.py"

# reference test parameter set (fig-1 and fig-3 completions)
S0 = mp.mpf(100)
R = mp.mpf("0.001")
KAPPA = mp.mpf("1.5")
THETA = mp.mpf("0.2")
SIGMA0_SQ = mp.mpf("0.25")
LAM = mp.mpf("0.05")
MU_J = mp.mpf("-0.05")
SIGMA_J = mp.mpf("0.5")

FIG1 = {"nu": mp.mpf("0.05"), "rho": mp.mpf("-0.2"), "T": mp.mpf("0.3")}
FIG3 = {"nu": mp.mpf("0.5"), "rho": mp.mpf("-0.8"), "T": mp.mpf("3")}


def norm_cdf(z):
    return mp.erfc(-z / mp.sqrt(2)) / 2


def bs_call(x, y, k, r, t):
    """Undiscounted-spot BS call with log-spot x, vol y."""
    sq = y * mp.sqrt(t)
    d1 = (x - mp.log(k) + (r + y * y / 2) * t) / sq
    d2 = d1 - sq
    return mp.e**x * norm_cdf(d1) - k * mp.e**(-r * t) * norm_cdf(d2)


def exp_var(t):
    """E[sigma_t^2] for the CIR variance."""
    return THETA + (SIGMA0_SQ - THETA) * mp.e**(-KAPPA * t)


def phi_fn(t, big_t):
    return (1 - mp.e**(-KAPPA * (big_t - t))) / KAPPA


def v0_of(big_t):
    return mp.sqrt(mp.quad(exp_var, [0, big_t]) / big_t)


def u0_of(rho, nu, big_t):
    return rho * nu / 2 * mp.quad(lambda t: exp_var(t) * phi_fn(t, big_t),
                                  [0, big_t])


def r0_of(nu, big_t):
    return nu**2 / 8 * mp.quad(lambda t: exp_var(t) * phi_fn(t, big_t)**2,
                               [0, big_t])


def lognormal_k():
    return mp.e**(MU_J + SIGMA_J**2 / 2) - 1


def kou_k(p, e1, e2):
    return p * e1 / (e1 - 1) + (1 - p) * e2 / (e2 + 1) - 1


def loguniform_k(a, b):
    return (mp.e**b - mp.e**a) / (b - a) - 1


def gn_lognormal(n, k_strike, big_t, v0):
    """e^{-lam k T} E[BS(x + J_n, v0)] at the compensated rate."""
    kk = lognormal_k()
    r_hat = R - LAM * kk
    x = mp.log(S0)
    if n == 0:
        return mp.e**(-LAM * kk * big_t) * bs_call(x, v0, k_strike, r_hat, big_t)
    m, s = n * MU_J, mp.sqrt(n) * SIGMA_J

    def f(yj):
        dens = mp.e**(-(yj - m)**2 / (2 * s * s)) / (s * mp.sqrt(2 * mp.pi))
        return bs_call(x + yj, v0, k_strike, r_hat, big_t) * dens

    lo, hi = m - 12 * s, m + 12 * s
    return mp.e**(-LAM * kk * big_t) * mp.quad(f, [lo, m, hi])


# independent Fourier pricer (complex mpmath arithmetic throughout)

def heston_cf(u, nu, rho, big_t):
    """CF of the zero-rate log price, stable branch."""
    xi = KAPPA - 1j * rho * nu * u
    d = mp.sqrt(xi * xi + nu * nu * (1j * u + u * u))
    ratio = -(1j * u + u * u) / (xi + d)
    g = nu * nu * ratio / (xi + d)
    edt = mp.e**(-d * big_t)
    log_term = mp.log((1 - g * edt) / (1 - g))
    return mp.e**(THETA * KAPPA * (ratio * big_t - 2 * log_term / (nu * nu))
                  + SIGMA0_SQ * ratio * (1 - edt) / (1 - g * edt))


def jump_cf_lognormal(u):
    return mp.e**(1j * u * MU_J - u * u * SIGMA_J**2 / 2)


def bates_cf(u, nu, rho, big_t):
    kk = lognormal_k()
    jump = mp.e**(LAM * big_t * (jump_cf_lognormal(u) - 1)
                  - 1j * u * LAM * kk * big_t)
    return heston_cf(u, nu, rho, big_t) * jump


def lewis_price(k_strike, nu, rho, big_t, lam_on=True):
    """One-integral call price from the CF, x0 = 0."""
    global LAM
    lam_save = LAM
    if not lam_on:
        LAM = mp.mpf(0)
    kbar = mp.log(S0 / k_strike) + R * big_t

    def integrand(u):
        z = u - 0.5j
        val = bates_cf(z, nu, rho, big_t) * mp.e**(1j * u * kbar)
        return val.real / (u * u + mp.mpf(1) / 4)

    integral = mp.quad(integrand, [0, 5, 20, 60, mp.inf])
    LAM = lam_save
    return (S0 - mp.sqrt(S0 * k_strike) * mp.e**(-R * big_t / 2) / mp.pi
            * integral)


def kou_pdf(u, p, e1, e2):
    if u >= 0:
        return p * e1 * mp.e**(-e1 * u)
    return (1 - p) * e2 * mp.e**(e2 * u)


def kou_pdf2(u, p, e1, e2):
    """Two-fold convolution by direct quadrature with kink splits."""
    pts = sorted({mp.mpf(-40), mp.mpf(0), mp.mpf(u), mp.mpf(40) / 1})
    return mp.quad(lambda s: kou_pdf(s, p, e1, e2) * kou_pdf(u - s, p, e1, e2),
                   pts)


def loguniform_pdf2(u, a, b):
    lo = max(a, u - b)
    hi = min(b, u - a)
    if hi <= lo:
        return mp.mpf(0)
    return (hi - lo) / (b - a)**2


def fmt(v):
    if isinstance(v, mp.mpc):
        return f"complex({mp.nstr(v.real, 20)}, {mp.nstr(v.imag, 20)})"
    return mp.nstr(mp.mpf(v), 20)


def main():
    lines = [
        '"""Frozen oracle constants. Regenerate with',
        'python3 tests/oracles/gen_frozen.py (mpmath, 50 digits)."""',
        "",
    ]

    def emit(name, value):
        lines.append(f"{name} = {fmt(value)}")

    # normal cdf pins
    for z in ("-8", "-3", "-0.5", "0.5", "3", "8"):
        emit(f"NORM_CDF_{z.replace('-', 'M').replace('.', 'P')}",
             norm_cdf(mp.mpf(z)))

    # BS pin and operator pins by high-order numerical differentiation
    x0, y0, k0, r0_, t0 = (mp.log(S0), mp.mpf("0.3"), mp.mpf(105),
                           mp.mpf("0.02"), mp.mpf("0.7"))
    f = lambda xx: bs_call(xx, y0, k0, r0_, t0)
    d1 = mp.diff(f, x0, 1)
    d2 = mp.diff(f, x0, 2)
    d3 = mp.diff(f, x0, 3)
    d4 = mp.diff(f, x0, 4)
    emit("BS_PIN_PRICE", f(x0))
    emit("BS_PIN_GAMMA", d2 - d1)
    emit("BS_PIN_LAMBDA_GAMMA", d3 - d2)
    emit("BS_PIN_GAMMA2", d4 - 2 * d3 + d2)
    emit("BS_PIN_VEGA", mp.diff(lambda yy: bs_call(x0, yy, k0, r0_, t0), y0, 1))
    lines.append("BS_PIN_ARGS = (%s, %s, %s, %s, %s)" % tuple(
        mp.nstr(v, 20) for v in (x0, y0, k0, r0_, t0)))

    # Heston moment functionals from quadrature of their definitions
    for tag, cfg in (("FIG1", FIG1), ("FIG3", FIG3)):
        emit(f"V0_{tag}", v0_of(cfg["T"]))
        emit(f"U0_{tag}", u0_of(cfg["rho"], cfg["nu"], cfg["T"]))
        emit(f"R0_{tag}", r0_of(cfg["nu"], cfg["T"]))

    # jump compensators
    emit("K_LOGNORMAL", lognormal_k())
    emit("K_KOU", kou_k(mp.mpf("0.4"), mp.mpf(10), mp.mpf(5)))
    emit("K_LOGUNIFORM", loguniform_k(mp.mpf("-0.3"), mp.mpf("0.2")))

    # jump-sum characteristic functions at a complex and a real argument
    uc = mp.mpc("0.7", "-0.2")
    emit("CF_LOGNORMAL_UC", jump_cf_lognormal(uc))
    emit("CF_LOGNORMAL_U2", jump_cf_lognormal(mp.mpf(2)))
    p, e1, e2 = mp.mpf("0.4"), mp.mpf(10), mp.mpf(5)
    kou_cf = lambda u: p * e1 / (e1 - 1j * u) + (1 - p) * e2 / (e2 + 1j * u)
    emit("CF_KOU_UC", kou_cf(uc))
    emit("CF_KOU_U2", kou_cf(mp.mpf(2)))
    a, b = mp.mpf("-0.3"), mp.mpf("0.2")
    lu_cf = lambda u: (mp.e**(1j * u * b) - mp.e**(1j * u * a)) / (1j * u * (b - a))
    emit("CF_LOGUNIFORM_UC", lu_cf(uc))
    emit("CF_LOGUNIFORM_U2", lu_cf(mp.mpf(2)))
    # small u, where e^z - 1 cancels in (e^z - 1)/z
    for tag, u in (("U1EM7", "1e-7"), ("U1EM5", "1e-5"), ("U1EM3", "1e-3")):
        emit(f"CF_LOGUNIFORM_{tag}", lu_cf(mp.mpf(u)))

    # two-fold densities at pinned abscissae
    for tag, u in (("M03", "-0.3"), ("ZERO", "0"), ("P025", "0.25")):
        emit(f"KOU2_{tag}", kou_pdf2(mp.mpf(u), p, e1, e2))
    for tag, u in (("M045", "-0.45"), ("M01", "-0.1"), ("P03", "0.3")):
        emit(f"LU2_{tag}", loguniform_pdf2(mp.mpf(u), a, b))

    # exact n-jump mixture terms, fig-1 completion, K=100
    v0_fig1 = v0_of(FIG1["T"])
    emit("GN1_FIG1_K100", gn_lognormal(1, mp.mpf(100), FIG1["T"], v0_fig1))
    emit("GN2_FIG1_K100", gn_lognormal(2, mp.mpf(100), FIG1["T"], v0_fig1))

    # independent Fourier reference prices
    for k_strike in (80, 100, 120):
        emit(f"REF_FIG1_K{k_strike}",
             lewis_price(mp.mpf(k_strike), FIG1["nu"], FIG1["rho"], FIG1["T"]))
    emit("REF_FIG3_K100",
         lewis_price(mp.mpf(100), FIG3["nu"], FIG3["rho"], FIG3["T"]))
    emit("REF_FIG1_K100_NOJUMP",
         lewis_price(mp.mpf(100), FIG1["nu"], FIG1["rho"], FIG1["T"],
                     lam_on=False))

    # CF pins for the reference pricer
    emit("BATES_CF_FIG1_U08", bates_cf(mp.mpf("0.8"), FIG1["nu"], FIG1["rho"],
                                       FIG1["T"]))
    emit("BATES_CF_FIG3_U35", bates_cf(mp.mpf("3.5"), FIG3["nu"], FIG3["rho"],
                                       FIG3["T"]))

    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
