"""Three-term recurrence and difference-equation data of a parameter array.

The recurrence coefficients give two tridiagonal matrices: J, with
(c_i, a_i, b_i) down column i, and J*, with (c*_j, a*_j, b*_j) along row
j.  The three-term recurrence is the identity H P = P J on the evaluation
table P, and the difference equation is J* P = P H*.  Each comparison
(`three_term_comparison`, `difference_comparison`) is made once per array
and kept on `Analysis` with the three bands of its matrix and its failure
lines: the two checks of this module print the lines, and where both
lists are empty `verify_leonard_conditions` reads its blocks off the bands
of J and J*, and `verify_orthogonality` its row Gram off J.

Each comparison is first decided on the triangular factors of P =
T D^-1 T*^t.  T and T* are the values of the Newton bases tau_n(lambda) =
(lambda - theta_0) .. (lambda - theta_{n-1}) and tau*_n, so H T = T N and
H* T* = T* N*, with N lower bidiagonal, theta_n on the diagonal and ones
below it (LS99; Terwilliger's condition (iii) read as coefficients).
Where PA1 and PA2 hold (`Analysis.pa1_pa2`), T, T* and D are invertible,
and multiplying through by D turns the two identities into

    J^t T* = T* A*',  A*' with theta on the diagonal and varphi above it,
    J* T = T A*,      A* with theta* on the diagonal and varphi above it,

each one `Field._intertwining_failures` call with a bidiagonal right
side, on T* or T from `Analysis.pair`, forming no P.  Where such a test
fails, or PA1 or PA2 does not hold, the identity is decided on P itself,
one intertwining call on its payload rows with a diagonal right side, and
the lines name the entries where the two sides differ, column by column.

The coefficients are held as payloads, like the one-sided products they
are read from; the names a .. cstar of `RecurrenceCoeffs` wrap them in
elements for the `recurrence` dump and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .fields import Field
from .report import CheckReport
from .splitmat import _element_view, _payloads

if TYPE_CHECKING:
    from .analysis import Analysis


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """`values` = (a, b, c, astar, bstar, cstar), each a tuple of payloads."""

    field: Field
    values: tuple
    a, b, c, astar, bstar, cstar = map(_element_view, range(6))


def _one_side(F: Field, theta0, below: Sequence, above: Sequence, varphi: Sequence,
              phi: Sequence) -> tuple:
    # below and above are the one-sided products of the eigenvalues dual to
    # this side: b_i = varphi_{i+1} below_i / below_{i+1} and
    # c_i = phi_i above_i / above_{i-1}; a balances the row sum against theta_0.
    # Every argument is a payload.
    mul, sub, inv, zero = F._mul, F._sub, F._checked_inv, F.zero_value
    d = len(below) - 1
    b = tuple([mul(mul(varphi[i], below[i]), inv(below[i + 1])) for i in range(d)]) + (zero,)
    c = (zero,) + tuple([mul(mul(phi[i - 1], above[i]), inv(above[i - 1]))
                         for i in range(1, d + 1)])
    return tuple([sub(sub(theta0, x), y) for x, y in zip(c, b)]), b, c


def recurrence_coeffs(a: Analysis) -> RecurrenceCoeffs:
    """The coefficients from the one-sided products of `Analysis.pair`."""
    p, pair, F = a.p, a.pair, a.p.field
    vp, ph = _payloads(p.varphi), _payloads(p.phi)
    return RecurrenceCoeffs(F, _one_side(F, p.theta[0].value, *pair.sides_star, vp, ph)
                            + _one_side(F, p.theta_star[0].value, *pair.sides, vp, ph[::-1]))


@dataclass(frozen=True)
class Comparison:
    """A tridiagonal recurrence matrix J of `recur`, as the payloads of its
    `bands` (diagonal, below, above) in the order `SquareMatrix.diagonal`
    takes them, and the lines where the evaluation table P fails the matrix
    identity that it is compared in."""

    field: Field
    bands: tuple[tuple, tuple, tuple]
    failures: tuple[str, ...]


def three_term_comparison(a: Analysis) -> Comparison:
    """H P = P J, with H = diag(theta), P[j][i] = f_i(theta_j) and J
    tridiagonal with (c_i, a_i, b_i) down column i.  Where PA1 and PA2
    hold it holds exactly when J^t T* = T* A*' (module docstring), which
    is tried first.  Otherwise it is decided as its transpose J^t P^t =
    P^t H, with the diagonal factor on the right; an entry (i, j) that
    fails there is f_i at theta_j.  That route reads P before the
    coefficients, so it raises where forming P raises."""
    p, F = a.p, a.p.field
    theta = _payloads(p.theta)
    if a.pa1_pa2:
        ca, cb, cc = a.recurrence.values[:3]
        if not F._intertwining_failures((ca, cc[1:], cb[:-1]), a.pair.Tstar.values,
                                        (theta, (), _payloads(p.varphi))):
            return Comparison(F, (ca, cb[:-1], cc[1:]), ())
    P = a.polys.P
    ca, cb, cc = a.recurrence.values[:3]
    failures = F._intertwining_failures((ca, cc[1:], cb[:-1]), tuple(zip(*P.values)),
                                        (theta, (), ()))
    return Comparison(F, (ca, cb[:-1], cc[1:]), tuple(
        f"recurrence fails for f_{i} at theta_{j}" for i, j in failures))


def difference_comparison(a: Analysis) -> Comparison:
    """J* P = P H*, with H* = diag(theta*) and J* tridiagonal with
    (c*_j, a*_j, b*_j) along row j.  Where PA1 and PA2 hold it holds
    exactly when J* T = T A* (module docstring), which is tried first;
    otherwise it is decided on P, read first, and the lines name the
    failing entries column by column."""
    p, F = a.p, a.p.field
    theta_star = _payloads(p.theta_star)
    if a.pa1_pa2:
        astar, bstar, cstar = a.recurrence.values[3:]
        bands = (astar, cstar[1:], bstar[:-1])
        if not F._intertwining_failures(bands, a.pair.T.values,
                                        (theta_star, (), _payloads(p.varphi))):
            return Comparison(F, bands, ())
    P = a.polys.P
    astar, bstar, cstar = a.recurrence.values[3:]
    bands = (astar, cstar[1:], bstar[:-1])
    failures = F._intertwining_failures(bands, P.values, (theta_star, (), ()))
    return Comparison(F, bands, tuple(
        f"difference equation fails for f_{j} at theta_{i}"
        for i, j in sorted(failures, key=itemgetter(1))))


def verify_three_term(a: Analysis) -> CheckReport:
    """theta_j f_i = c_i f_{i-1} + a_i f_i + b_i f_{i+1} evaluated on the
    eigenvalues, boundary terms omitted: H P = P J, read from
    `Analysis.three_term`, which `verify_leonard_conditions` and
    `verify_orthogonality` read too."""
    return CheckReport("three-term", list(a.three_term.failures))


def verify_difference(a: Analysis) -> CheckReport:
    """theta*_i f_i(theta_j) = c*_j f_i(theta_{j-1}) + a*_j f_i(theta_j)
    + b*_j f_i(theta_{j+1}), boundary terms omitted: P H* = J* P, read
    from `Analysis.difference`, which `verify_leonard_conditions` reads
    too."""
    return CheckReport("difference", list(a.difference.failures))


def _alt_checks(F: Field, th: Sequence, diff: Sequence, diff_star: Sequence,
                vp: Sequence, co: tuple, report: CheckReport, tag: str) -> None:
    # the payloads of theta and varphi of one side, the difference tables
    # of its theta and theta* (`PairProducts`), and its (a, b, c)
    mul, add, sub, inv = F._mul, F._add, F._sub, F._checked_inv
    a, b, c = co
    d = len(th) - 1
    for i in range(1, d + 1):
        ai = add(th[i], mul(vp[i - 1], inv(diff_star[i][i - 1])))
        if i < d:
            ai = add(ai, mul(vp[i], inv(diff_star[i][i + 1])))
        if a[i] != ai:
            report.add(f"{tag}a_{'d' if i == d else i} closed form fails")
    step = diff[1][0]
    for i in range(1, d + 1):
        lhs = mul(c[i], diff_star[i - 1][i])
        if i < d:
            lhs = sub(lhs, mul(b[i], diff_star[i][i + 1]))
        if lhs != add(mul(step, diff_star[i][0]), vp[0]):
            report.add(f"{tag}weighted b/c difference identity fails at {i}")


def verify_alt_formulas(a: Analysis) -> CheckReport:
    """For 1 <= i <= d, a_i against theta_i + varphi_i / (theta*_i -
    theta*_{i-1}) + varphi_{i+1} / (theta*_i - theta*_{i+1}), and the
    weighted difference identity c_i (theta*_{i-1} - theta*_i) - b_i
    (theta*_i - theta*_{i+1}) = (theta_1 - theta_0)(theta*_i - theta*_0)
    + varphi_1, the theta*_{i+1} terms absent at i = d (where the identity
    is PA4 at d); on the array, and on its dual (theta*, theta, varphi).

    The other closed forms are identities of `recurrence_coeffs`: a_0, b_0,
    c_d and the weighted identity at 0 follow from its b_0 and c_d, and for
    0 < i < d the closed forms of b_i and c_i are the weighted identity at
    i scaled by nonzero differences of theta*, since a_i = theta_0 - b_i -
    c_i.  a_d is not one: at d >= 3 it can fail where PA1-PA4 hold and PA5
    does not.  Skipped at d = 0, where there are no interior coefficients.
    The differences of theta and theta* are read from the difference
    tables of `Analysis.pair`, and only their inverses are taken here."""
    p = a.p
    if p.d < 1:
        return CheckReport("alt-recurrence",
                           skipped="no interior coefficients at d = 0")
    report = CheckReport("alt-recurrence")
    co, pair = a.recurrence.values, a.pair
    th, ths, vp = _payloads(p.theta), _payloads(p.theta_star), _payloads(p.varphi)
    diff, diff_star = pair.differences, pair.differences_star
    _alt_checks(p.field, th, diff, diff_star, vp, co[:3], report, "")
    _alt_checks(p.field, ths, diff_star, diff, vp, co[3:], report, "dual ")
    return report
