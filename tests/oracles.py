"""Independent oracles the test suite trusts.

Each oracle deliberately avoids the code path it checks: the logarithmic
integral is integrated numerically (tanh-sinh quadrature of a principal-value
decomposition), the Bessel function is summed naively from its defining
series, the large-argument li sanity value comes from the divergent
asymptotic series truncated at its smallest term, and the fixed-point prime
logs are rounded by mpmath's high-level floor instead of integer shifts.
"""

from mpmath import inf, log, mp, mpf, quad


def li_quadrature(x, prec=256):
    """PV of int_0^x dt/log t.

    Substituting t = e^u gives PV int_{-inf}^{log x} e^u/u du; splitting off
    the 1/u pole leaves the entire integrand (e^u - 1)/u plus log(b/a) plus
    an exponentially small lower tail, each handled by mpmath's quadrature.
    """
    with mp.workprec(prec):
        a = mpf(200)
        b = log(mpf(x))
        points = [-a, 0, b] if b > 0 else [-a, b]
        smooth = quad(lambda u: (mp.exp(u) - 1) / u if u != 0 else mpf(1), points)
        tail = quad(lambda u: mp.exp(-u) / u, [a, inf])
        return smooth + log(abs(b) / a) - tail


def bessel_i1_series(c, terms=30, dps=50):
    """Direct summation of the defining series, no clever termination."""
    with mp.workdps(dps):
        c = mpf(c)
        s = mpf(0)
        for n in range(terms):
            s += (c / 2) ** (2 * n + 1) / (mp.factorial(n) * mp.factorial(n + 1))
        return s


def li_asymptotic(x, prec=192):
    """li(x) ~ (x/log x) sum_k k!/log^k x truncated at the smallest term."""
    with mp.workprec(prec):
        x = mpf(x)
        y = log(x)
        total = mpf(1)
        term = mpf(1)
        k = 1
        while True:
            nxt = term * k / y
            if abs(nxt) >= abs(term):
                break
            term = nxt
            total += term
            k += 1
        return x / y * total


def log_fixed_mp(p, fix_bits=96, prec=160):
    """round(log(p) * 2^fix_bits), half up, through mpmath's high-level API."""
    with mp.workprec(prec):
        return int(mp.floor(mp.log(p) * (mpf(2) ** fix_bits) + mpf("0.5")))
