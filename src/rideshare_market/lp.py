"""Exact rational LP kernel: two-phase primal simplex with Bland's rule.

Everything is computed in :class:`fractions.Fraction`, so optimality,
infeasibility, and unboundedness verdicts are exact.  The kernel maximizes;
minimize by negating the objective.

Outcomes are values, never exceptions:

* :class:`Optimal` -- an optimal vertex and its value.
* :class:`Infeasible` -- Farkas multipliers: a sign-constrained combination
  of the rows proving ``0 >= positive``.
* :class:`Unbounded` -- an improving ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from rideshare_market.errors import CertificateError
from rideshare_market.market import _money

LE = "<="
EQ = "=="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Row:
    coeffs: tuple
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {self.rel!r}")
        object.__setattr__(self, "coeffs", tuple(_money(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", _money(self.rhs))


@dataclass(frozen=True)
class LPProblem:
    """Maximize ``objective . x`` subject to ``rows`` and ``0 <= x <= ub``.

    Variables are nonnegative; ``upper_bounds`` may give a finite upper
    bound per variable (``None`` for unbounded).  Upper bounds are treated
    as ``<=`` rows appended after the declared rows, in variable order, and
    certificates cover them in that order.
    """

    num_vars: int
    objective: tuple
    rows: tuple
    upper_bounds: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(_money(c) for c in self.objective))
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        for r in self.rows:
            if len(r.coeffs) != self.num_vars:
                raise ValueError("row length does not match num_vars")
        if self.upper_bounds is not None:
            ubs = tuple(None if u is None else _money(u) for u in self.upper_bounds)
            if len(ubs) != self.num_vars:
                raise ValueError("upper_bounds length does not match num_vars")
            object.__setattr__(self, "upper_bounds", ubs)

    def all_rows(self):
        """Declared rows plus upper-bound rows, the order certificates use."""
        rows = list(self.rows)
        if self.upper_bounds is not None:
            for v, ub in enumerate(self.upper_bounds):
                if ub is None:
                    continue
                coeffs = [_ZERO] * self.num_vars
                coeffs[v] = _ONE
                rows.append(Row(tuple(coeffs), LE, ub))
        return rows


@dataclass(frozen=True)
class Optimal:
    point: tuple
    value: Fraction


@dataclass(frozen=True)
class Infeasible:
    certificate: tuple  # one multiplier per row of all_rows()


@dataclass(frozen=True)
class Unbounded:
    ray: tuple


class _Tableau:
    """Dense simplex tableau over Fractions.

    Column layout: structural vars, then one slack per inequality row, then
    one artificial per row that needs one.  The objective row holds reduced
    costs ``z_j - c_j``; optimality is all entries >= 0 (maximization).
    """

    def __init__(self, problem: LPProblem):
        rows = problem.all_rows()
        self.n = problem.num_vars
        self.m = len(rows)
        self.row_sign = []  # D_k: +1, or -1 when the row was negated
        self.slack_col = [None] * self.m
        self.slack_coeff = [None] * self.m
        self.art_col = [None] * self.m
        self.dropped = [False] * self.m

        n_slack = sum(1 for r in rows if r.rel != EQ)
        # a row starts with a basic slack only if it reads "a.x + s = b>=0"
        art_needed = [
            not (r.rel == LE and r.rhs >= 0) and not (r.rel == GE and r.rhs < 0) for r in rows
        ]
        n_art = sum(art_needed)

        width = self.n + n_slack + n_art
        self.width = width
        self.body = []  # list of rows, each: coeffs + [rhs]
        self.basis = []
        slack_i = 0
        art_i = 0
        for k, r in enumerate(rows):
            coeffs = list(r.coeffs)
            rhs = r.rhs
            sign = _ONE
            if rhs < 0:
                coeffs = [-c for c in coeffs]
                rhs = -rhs
                sign = -_ONE
            self.row_sign.append(sign)
            full = coeffs + [_ZERO] * (n_slack + n_art)
            if r.rel != EQ:
                sigma = _ONE if r.rel == LE else -_ONE
                col = self.n + slack_i
                full[col] = sigma * sign
                self.slack_col[k] = col
                self.slack_coeff[k] = sigma * sign
                slack_i += 1
            if art_needed[k]:
                col = self.n + n_slack + art_i
                full[col] = _ONE
                self.art_col[k] = col
                art_i += 1
                self.basis.append(col)
            else:
                self.basis.append(self.slack_col[k])
            full.append(rhs)
            self.body.append(full)
        self.banned = set()

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, row, col, obj):
        piv = self.body[row][col]
        inv = _ONE / piv
        self.body[row] = [c * inv for c in self.body[row]]
        prow = self.body[row]
        for i, r in enumerate(self.body):
            if i == row or r[col] == 0:
                continue
            f = r[col]
            self.body[i] = [a - f * b for a, b in zip(r, prow)]
        if obj[col] != 0:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * prow[j]
        self.basis[row] = col

    def _make_obj_row(self, costs):
        # reduced-cost row: start from -c, then zero out basic columns
        obj = [-c for c in costs] + [_ZERO]
        for i, b in enumerate(self.basis):
            if self.dropped[i] or obj[b] == 0:
                continue
            f = obj[b]
            row = self.body[i]
            for j in range(len(obj)):
                obj[j] -= f * row[j]
        return obj

    def _simplex(self, obj):
        """Run Bland-rule simplex; returns None at optimum or the entering
        column index on unboundedness."""
        while True:
            enter = None
            for j in range(self.width):
                if j in self.banned:
                    continue
                if obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None
            leave = None
            best = None
            for i in range(self.m):
                if self.dropped[i]:
                    continue
                a = self.body[i][enter]
                if a > 0:
                    ratio = self.body[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return enter
            self._pivot(leave, enter, obj)

    # -- phases -----------------------------------------------------------

    def phase1(self):
        """Returns (feasible, obj_row)."""
        costs = [_ZERO] * self.width
        for k in range(self.m):
            if self.art_col[k] is not None:
                costs[self.art_col[k]] = -_ONE
        obj = self._make_obj_row(costs)
        if self._simplex(obj) is not None:
            raise CertificateError("simplex: phase 1 came out unbounded")
        value = obj[-1]  # equals -(sum of artificials) at optimum, negated
        feasible = value == 0
        if feasible:
            self._expel_artificials(obj)
        return feasible, obj

    def _expel_artificials(self, obj):
        art_cols = {c for c in self.art_col if c is not None}
        for i in range(self.m):
            if self.dropped[i] or self.basis[i] not in art_cols:
                continue
            # basic artificial at value 0: pivot it out or drop a redundant row
            done = False
            for j in range(self.width):
                if j in art_cols or j in self.banned:
                    continue
                if self.body[i][j] != 0:
                    self._pivot(i, j, obj)
                    done = True
                    break
            if not done:
                self.dropped[i] = True
        self.banned |= art_cols

    def phase2(self, objective):
        costs = list(objective) + [_ZERO] * (self.width - self.n)
        return self._simplex(self._make_obj_row(costs))

    # -- extraction -------------------------------------------------------

    def point(self):
        x = [_ZERO] * self.width
        for i, b in enumerate(self.basis):
            if not self.dropped[i]:
                x[b] = self.body[i][-1]
        return tuple(x[: self.n])

    def row_multipliers(self, obj):
        """Phase-1 dual value per original row, mapped back through row negation.

        Read ``y_k`` off the objective row at each row's artificial column
        (clean unit column) or, failing that, its slack column.
        """
        mults = []
        for k in range(self.m):
            if self.dropped[k]:
                mults.append(_ZERO)
                continue
            if self.art_col[k] is not None:
                y = obj[self.art_col[k]] - _ONE  # artificial cost was -1 in phase 1
            else:
                col = self.slack_col[k]
                y = obj[col] / self.slack_coeff[k]
            mults.append(self.row_sign[k] * y)
        return tuple(mults)

    def ray(self, enter):
        d = [_ZERO] * self.width
        d[enter] = _ONE
        for i, b in enumerate(self.basis):
            if not self.dropped[i]:
                d[b] = -self.body[i][enter]
        return tuple(d[: self.n])


def lp_solve(problem: LPProblem):
    """Solve ``problem`` exactly.  Returns Optimal, Infeasible, or Unbounded."""
    tab = _Tableau(problem)
    feasible, obj1 = tab.phase1()
    if not feasible:
        return Infeasible(certificate=tab.row_multipliers(obj1))
    unb = tab.phase2(problem.objective)
    if unb is not None:
        return Unbounded(ray=tab.ray(unb))
    point = tab.point()
    value = sum((c * x for c, x in zip(problem.objective, point)), _ZERO)
    return Optimal(point=point, value=value)


def verify_infeasibility_certificate(problem: LPProblem, certificate) -> bool:
    """Exact check of a Farkas certificate against the row system.

    The multipliers must respect the relation signs (>=0 on ``<=`` rows,
    <=0 on ``>=`` rows, free on equalities), combine the row coefficients
    into a componentwise-nonnegative vector, and combine the right-hand
    sides into a negative number.  With ``x >= 0`` that reads
    ``0 <= combined . x <= negative``, a contradiction.
    """
    rows = problem.all_rows()
    if len(certificate) != len(rows):
        return False
    combined = [_ZERO] * problem.num_vars
    rhs = _ZERO
    for mu, row in zip(certificate, rows):
        mu = _money(mu)
        if row.rel == LE and mu < 0:
            return False
        if row.rel == GE and mu > 0:
            return False
        for j, c in enumerate(row.coeffs):
            combined[j] += mu * c
        rhs += mu * row.rhs
    return all(c >= 0 for c in combined) and rhs < 0
