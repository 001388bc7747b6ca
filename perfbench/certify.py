"""Per-op certificates, checked after the timed region.

Each check takes the op's stdout and returns None when the output holds, or
a one-line reason when it does not. The reference values come from closed
forms or from a route independent of the one the program used: Bessel zeros
for p = 2, a separate shooting of the radial profile for p != 2, the
closed-form rectangle eigenvalue, and the round trip between the ball
eigenvalue and the 1-D quotient.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from scipy.integrate import solve_ivp
from scipy.special import jn_zeros

from spectral_bounds import special

MU1_TOL = 1e-3
CHECK_TOL = 1e-3
PSI_TOL = 1e-7
ROUND_TRIP_TOL = 1e-3


def _rows(text: str):
    data = json.loads(text)
    return data if isinstance(data, list) else [data]


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


@lru_cache(maxsize=None)
def psi_reference(p: float, n: int) -> float:
    """First zero of the radial p-Laplacian ball profile.

    p = 2 uses the Bessel zero j_{n/2-1,1}, as special.bessel_first_zero
    gives it. Otherwise the ODE (r^{n-1} |u'|^{p-2} u')' = -r^{n-1} u^{p-1},
    u(0) = 1, is shot in (u, r^{n-1} |u'|^{p-2} u') with an explicit RK45
    from a first-order start at r = 1e-3: another integrator, another
    state and another start than the program's.
    """
    if p == 2.0:
        return special.bessel_first_zero(n / 2.0 - 1.0)
    r0 = 1e-3
    kappa = p / (p - 1.0)
    c = (p - 1.0) / p * n ** (-1.0 / (p - 1.0))

    def rhs(r, y):
        u, w = y
        q = w / r ** (n - 1)
        du = math.copysign(abs(q) ** (1.0 / (p - 1.0)), q)
        return (du, -r ** (n - 1) * math.copysign(abs(u) ** (p - 1.0), u))

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1
    y0 = (1.0 - c * r0 ** kappa, -r0 ** n / n)
    sol = solve_ivp(rhs, (r0, 50.0), y0, method="RK45", rtol=1e-12,
                    atol=1e-14, events=crossing)
    return float(sol.t_events[0][0])


def psi(ps, ns, text: str):
    rows = _rows(text)
    if len(rows) != len(ps) * len(ns):
        return f"psi: {len(rows)} rows for {len(ps)}x{len(ns)} inputs"
    for row in rows:
        ref = psi_reference(float(row["p"]), int(row["n"]))
        if _rel(row["psi"], ref) > PSI_TOL:
            return f"psi({row['p']}, {row['n']}) = {row['psi']} != {ref}"
    return None


def compare_bounds(a, text: str):
    """Every listed bound at or below mu1; for a rectangle of long side a,
    mu1 equal to pi^2/a^2."""
    rows = _rows(text)
    mu1 = rows[0]["mu1"]
    if a is not None and _rel(mu1, math.pi ** 2 / a ** 2) > MU1_TOL:
        return f"compare-bounds: mu1 {mu1} != pi^2/{a}^2"
    for row in rows:
        if row["value"] > mu1:
            return f"compare-bounds: {row['bound']} = {row['value']} > mu1 {mu1}"
    return None


def verify_rhombus(text: str):
    for row in _rows(text):
        if not (row["r_m"] > 2.0 and row["dn_ok"]):
            return f"verify-rhombus m={row['m']}: r_m {row['r_m']}, dn_ok {row['dn_ok']}"
    return None


def chiti(text: str):
    row = _rows(text)[0]
    if row["max_violation"] > CHECK_TOL or row["lemma_violated"]:
        return (f"chiti {row['domain']}: violation {row['max_violation']}, "
                f"lemma_violated {row['lemma_violated']}")
    return None


def rholder(text: str):
    row = _rows(text)[0]
    return None if row["ok"] else f"rholder {row['domain']}: not ok"


def bound(name: str, a, text: str):
    """Square and rhombi: the main bound is j_{0,1}^2. Rectangles: every
    bound at or below the closed-form mu1 = pi^2/a^2."""
    row = _rows(text)[0]
    if a is None or a == 1.0:
        j0 = float(jn_zeros(0, 1)[0])
        if _rel(row["main"], j0 * j0) > 1e-9:
            return f"bound {name}: main {row['main']} != j0^2"
    if a is not None:
        mu1 = math.pi ** 2 / a ** 2
        for key in ("main", "ashbaugh_mercado", "payne_weinberger",
                    "bct_corollary", "symmetric_planar"):
            if row[key] > mu1:
                return f"bound {name}: {key} {row[key]} > mu1 {mu1}"
    return None


def sturm(p: float, length: float, text: str):
    """sigma above the Hardy floor, and the comparison-ball round trip
    sigma^{p-1} 2^p L^{p/2} = lambda_1(B_1) = psi_p^p (n = 2)."""
    row = _rows(text)[0]
    gamma = p / (p - 1.0)
    floor = length ** (-gamma / 2.0) * (gamma - 1.0) ** gamma / gamma ** gamma
    sigma = row["sigma1"]
    if not sigma >= floor * (1.0 - 1e-9):
        return f"sturm p={p}: sigma {sigma} below Hardy floor {floor}"
    ball = psi_reference(p, 2) ** p
    trip = sigma ** (p - 1.0) * 2.0 ** p * length ** (p / 2.0)
    if _rel(trip, ball) > ROUND_TRIP_TOL:
        return f"sturm p={p}: round trip {trip} != lambda1(B1) {ball}"
    return None


def suite(checks, text: str):
    """Split suite output at its per-line status comments and certify each
    line's table with the check of the line that produced it."""
    chunks, current, status = [], [], []
    for line in text.splitlines():
        if line.startswith("# line "):
            chunks.append("\n".join(current))
            status.append(" ok: " in line)
            current = []
        elif not line.startswith("# suite:"):
            current.append(line)
    if len(chunks) != len(checks):
        return f"suite: {len(chunks)} line outputs for {len(checks)} lines"
    for number, (chunk, ok, check) in enumerate(zip(chunks, status, checks), 1):
        if not ok:
            return f"suite line {number} failed"
        reason = check(chunk)
        if reason:
            return f"suite line {number}: {reason}"
    return None

