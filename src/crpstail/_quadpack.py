"""Adaptive Gauss-Kronrod quadrature: QUADPACK's DQAGSE.

A port of the Fortran routine of Piessens, de Doncker-Kapenga, Ueberhuber
and Kahaner (*QUADPACK*, Springer 1983), operation for operation, together
with the 21-point rule DQK21, the error-list sort DQPSRT and the epsilon
algorithm DQELG it calls. Every float operation, comparison and branch is
the Fortran's, in its order, so a run returns the same bits as scipy 1.17's
``quad`` without break points (a C translation of the same routines): the
result, the error estimate, ``ier``, the evaluation count and the
subinterval lists. Break points are the caller's: it integrates each piece
between them with its own run.

The lists are 1-based as in the Fortran (slot 0 is unused), so the
transcription keeps QUADPACK's indices; :class:`Quadrature` returns them
0-based, as scipy's ``full_output`` does.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple, Sequence

from .errors import IntegrationWarning

# d1mach(4), d1mach(1) and d1mach(2)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# the positive 21-point Kronrod abscissae, outermost first, and their
# weights; every second one, from the second on, is a 10-point Gauss
# abscissa, of weight _WG
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GAUSS = tuple((j, _XGK[j], _WGK[j], _WG[j // 2]) for j in range(1, 10, 2))
_KRONROD = tuple((j, _XGK[j], _WGK[j]) for j in range(0, 10, 2))

# scipy's message for each ier that returns a value
_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
       "If increasing the limit yields no improvement it is advised to "
       "analyze \n  the integrand in order to determine the difficulties.  "
       "If the position of a \n  local difficulty can be determined "
       "(singularity, discontinuity) one will \n  probably gain from "
       "splitting up the interval and calling the integrator \n  on the "
       "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  "
       "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
       "in the extrapolation table.  It is assumed that the requested "
       "tolerance\n  cannot be achieved, and that the returned result "
       "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


class Quadrature(NamedTuple):
    """One QUADPACK run: the integral, its error estimate, ``ier`` (0 when the
    tolerance was met) and scipy's ``full_output`` fields. The lists hold the
    ``last`` subintervals; ``iord`` ranks the indices (0-based) of those that
    DQPSRT keeps in order, by error estimate."""

    result: float
    abserr: float
    ier: int
    neval: int
    last: int
    alist: Sequence[float]
    blist: Sequence[float]
    rlist: Sequence[float]
    elist: Sequence[float]
    iord: Sequence[int]


# ier 6: the input is invalid
_INVALID = Quadrature(0.0, 0.0, 6, 0, 0, [], [], [], [], [])


def quad(f, a, b, tol, limit) -> Quadrature:
    """int_a^b f over a finite range a <= b to the absolute and relative
    tolerance ``tol`` in at most ``limit`` subintervals, by DQAGSE as scipy's
    ``quad`` integrates it without break points. Warns
    :class:`~crpstail.errors.IntegrationWarning` with scipy's message where
    ``ier`` is 1 to 5, and raises ``ValueError`` on invalid input (``ier`` 6)."""
    a, b, tol = float(a), float(b), float(tol)
    if a == b:
        return Quadrature(0.0, 0.0, 0, 0, 0, [], [], [], [], [])
    out = _qagse(f, a, b, tol, tol, limit)
    if out.ier == 6:
        raise ValueError("The input is invalid.")
    if out.ier:
        warnings.warn(_MESSAGES[out.ier].format(limit=limit), IntegrationWarning, stacklevel=2)
    return out


def _qk21(f, a, b):
    """DQK21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule
    on [a, b], with the 10-point Gauss rule for the error estimate."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, x, wk, wg in _GAUSS:
        absc = hlgth * x
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _KRONROD:
        absc = hlgth * x
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for wk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, pow(200.0 * abserr / resasc, 1.5))
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: insert the two newest error estimates into the descending
    ranking ``iord`` (kept over the intervals that can still be bisected);
    returns (maxerr, errmax, nrmax), the interval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # an earlier subdivision raised the error: move errmax up first
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """DQELG: one step of Wynn's epsilon algorithm on the table ``epstab`` of
    n partial sums (updated in place, with the last three results in
    ``res3la``); returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: convergence
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close, or irregular behaviour: cut the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagse(f, a, b, epsabs, epsrel, limit):
    """DQAGSE: global adaptive bisection of [a, b] with epsilon extrapolation."""
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return _INVALID
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    ier = 0
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    # test on accuracy
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _out(result, abserr, ier, 21, last, alist, blist, rlist, elist, iord)

    # initialization
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0
    converged = False
    # the loop always leaves by a break: ier = 1 at last = limit
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        # improve the approximations to the integral and the error
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subdivision limit, and bad integrand behaviour at a
        # point (a subinterval too small to split)
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # store the two halves: the one of larger error estimate in slot
        # maxerr, the other in slot last
        if not error2 > error1:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        else:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            converged = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    result, abserr, ier = _final(converged, result, abserr, ier, ierro, correc, area,
                                 errsum, ksgn, defabs, rlist, last)
    return _out(result, abserr, ier, 42 * last - 21, last, alist, blist, rlist, elist, iord)


def _final(converged, result, abserr, ier, ierro, correc, area, errsum, ksgn, resabs,
           rlist, last):
    """DQAGSE's ending: keep the extrapolated result or sum the subinterval
    results, test for divergence, and shift ier 3-6 down by one. Returns
    (result, abserr, ier)."""
    summed = converged or abserr == _OFLOW
    if not summed:
        divergence_test = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                divergence_test = False
        if divergence_test and not summed:
            if not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
                ratio = _divide(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier = ier - 1
    return result, abserr, ier


def _divide(x, y):
    """x / y in IEEE arithmetic, where Python raises on a zero divisor."""
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _out(result, abserr, ier, neval, last, alist, blist, rlist, elist, iord):
    """The run as a :class:`Quadrature`, its lists 0-based: the ``last``
    subintervals, and the ranks that DQPSRT keeps, the first
    min(last, limit // 2 + 2)."""
    keep = min(last, (len(alist) - 1) // 2 + 2)
    return Quadrature(result, abserr, ier, neval, last, alist[1:last + 1], blist[1:last + 1],
                      rlist[1:last + 1], elist[1:last + 1], [i - 1 for i in iord[1:keep + 1]])
