"""exact-series: exact Fraction arithmetic in ``series``, ``matrices``,
``paths`` and ``groupoids``; no measure or geometry code runs."""

from __future__ import annotations

from fractions import Fraction

from harness import Case, Outcome

WHY = ("exact Fraction arithmetic in series, matrices and paths only; "
       "a measures or geometry change should leave it unmoved")
CALIBRATION = "interpreter"

ORDERS = (6, 8)
BOX_SPEC = "box:2:0..2,0..2"
SERIES_PER_GROUPOID = 16
PATH_COUNT = 24
PATH_ORDER = 4
EULER_NS = (8, 16, 32, 64, 128)
RATIO_BAND = (1.7, 2.3)
SEMIDIRECT_COUNT = 12
SEMIDIRECT_ORDER = 4


def groupoid_specs(order):
    return ("nat", f"interval:0..{order}", BOX_SPEC)


def random_matrix(lib, rng, num, den):
    return lib.matrices.RationalMatrix(
        [[Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(2)]
         for _ in range(2)])


def random_series(lib, gpd, order, rng, support=6):
    """A 2x2 rational-matrix series with zero neutral part on ``support``
    random positive-grade elements (all of them when there are fewer)."""
    elems = [e for e in gpd.elements_up_to(order) if gpd.ord(e) >= 1]
    picked = rng.sample(elems, min(support, len(elems)))
    return lib.series.FormalSeries(
        gpd, order, {e: random_matrix(lib, rng, 4, 4) for e in picked},
        lib.matrices.RationalMatrix.identity(2))


def random_path(lib, rng, index, order):
    """A polynomial direction on every positive-grade element up to grade
    ``order``: over nat for even indices, else over an interval groupoid;
    matrix-valued for every third index, else scalar.  Support and degrees
    are fixed by the index, so the seed moves the coefficient values and
    not the size of the problem."""
    gpd = (lib.groupoids.make_nat_monoid() if index % 2 == 0
           else lib.groupoids.make_interval_groupoid(0, order))
    matrix_valued = index % 3 == 0
    unit = lib.matrices.RationalMatrix.identity(2) if matrix_valued else Fraction(1)
    polys = {}
    for elem in gpd.elements_up_to(order):
        if gpd.ord(elem) == 0:
            continue
        degree = (index + gpd.ord(elem)) % 4
        if matrix_valued:
            coeffs = [random_matrix(lib, rng, 2, 2) for _ in range(degree + 1)]
        else:
            coeffs = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) * rng.choice((1, -1))
                      for _ in range(degree + 1)]
        polys[elem] = lib.paths.CoeffPoly(coeffs, unit)
    return lib.paths.AlgebraPath(gpd, order, polys, unit)


def random_semidirect(lib, rng):
    nat = lib.groupoids.make_nat_monoid()
    while True:
        g = random_matrix(lib, rng, 3, 2)
        if g[0, 0] * g[1, 1] != g[0, 1] * g[1, 0]:
            break
    return lib.series.SemidirectElement(
        g, random_series(lib, nat, SEMIDIRECT_ORDER, rng))


def generate(lib, rng):
    series = []
    for order in ORDERS:
        for spec in groupoid_specs(order):
            gpd = lib.groupoids.from_spec(spec)
            for k in range(SERIES_PER_GROUPOID):
                series.append((f"series/N{order}/{spec}/{k}", gpd, order,
                               random_series(lib, gpd, order, rng)))
    paths = [(f"ode/{i}", random_path(lib, rng, i, PATH_ORDER))
             for i in range(PATH_COUNT)]
    semidirect = [(f"semidirect/{k}", tuple(random_semidirect(lib, rng)
                                            for _ in range(3)))
                  for k in range(SEMIDIRECT_COUNT)]
    euler = list(lib.paths.convergence_suite_paths(PATH_ORDER).items())
    rng.shuffle(euler)
    axioms = [(f"axioms/N{order}/{spec}", lib.groupoids.from_spec(spec), order)
              for order in ORDERS for spec in groupoid_specs(order)]
    return {"lib": lib, "series": series, "paths": paths,
            "semidirect": semidirect, "euler": euler, "axioms": axioms}


# -- canonical text of exact outputs ---------------------------------------

def series_text(lib, s):
    payload = s.to_payload()
    return repr(sorted(payload.items()))


def path_text(lib, p):
    to_payload = lib.series.coeff_to_payload
    gpd = p.groupoid
    return repr(sorted((gpd.element_id(e), [to_payload(c) for c in poly.coeffs])
                       for e, poly in p.polys.items()))


def coeff_text(lib, value):
    return repr(lib.series.coeff_to_payload(value))


# -- cases -------------------------------------------------------------------

def series_case(lib, case_id, gpd, order, a):
    """exp∘log, log∘exp and u·u⁻¹ round trips on one random series."""
    one = lib.series.FormalSeries.one(gpd, order, a.unit)

    def run(api):
        s = api.series
        u = s.exp(a)
        b = s.add(one, a)
        ui = s.inverse(u)
        return {"u": u, "ui": ui,
                "log_exp": s.log(u) == a,
                "exp_log": s.exp(s.log(b)) == b,
                "inverse": s.mul(u, ui) == one}

    def check(out):
        ok = out["log_exp"] and out["exp_log"] and out["inverse"]
        return Outcome(ok, series_text(lib, out["u"]) + series_text(lib, out["ui"]))

    slots = len(gpd.elements_up_to(order))
    # exp, add, inverse, log, log, exp, mul: each yields a dense series
    return Case(case_id, run, check, {"series.coeffs_out": 7 * slots})


def ode_case(lib, case_id, v):
    """Exact left-ODE solution, its log-derivative, and the simplex
    integrals per grade against the solution at s = 1."""

    def run(api):
        p = api.paths
        u = p.solve_left_ode(v)
        ok = p.left_log_derivative(u) == v
        at_one = p.AlgebraPath_call(u, 1)
        grades = []
        for m in range(v.order + 1):
            value = p.iterated_integrals(v, m)
            ok &= value == p.grade_component(at_one, m)
            grades.append(value)
        return {"ok": ok, "u": u, "grades": grades}

    def check(out):
        text = path_text(lib, out["u"]) + "".join(coeff_text(lib, g)
                                                   for g in out["grades"])
        return Outcome(out["ok"], text)

    return Case(case_id, run, check)


def euler_case(lib, name, v):
    """First-order Euler-product convergence for n = 8 ... 128."""

    def run(api):
        rows = api.paths.convergence_table(v, EULER_NS)
        return rows, api.paths.error_ratios(rows)

    def check(out):
        rows, ratios = out
        lo, hi = RATIO_BAND
        ok = bool(ratios) and all(lo <= r["ratio"] <= hi for r in ratios)
        floats = {f"error/n{r['n']}/g{r['grade']}": (r["error"], 1e-15) for r in rows}
        return Outcome(ok, repr([(r["n"], r["grade"]) for r in rows]), floats,
                       note=repr([r["ratio"] for r in ratios]))

    # euler_product(v, n, 1) multiplies n factors for each n of the table
    return Case(f"euler/{name}", run, check, {"paths.euler_factors": sum(EULER_NS)})


def semidirect_case(lib, case_id, triple):
    """Identity, inverse and associativity laws of the semidirect group,
    and the matrix inverse of its linear part."""
    x, y, z = triple
    gpd, order = x.a.groupoid, x.a.order
    SE = lib.series.SemidirectElement
    ident = lib.matrices.RationalMatrix.identity(2)

    def run(api):
        s, m = api.series, api.matrices
        e = SE.identity(2, gpd, order)
        ok = s.SemidirectElement_mul(e, x) == x and s.SemidirectElement_mul(x, e) == x
        xi = s.SemidirectElement_inverse(x)
        ok &= s.SemidirectElement_mul(x, xi) == e and s.SemidirectElement_mul(xi, x) == e
        xy = s.SemidirectElement_mul(x, y)
        ok &= (s.SemidirectElement_mul(xy, z)
               == s.SemidirectElement_mul(x, s.SemidirectElement_mul(y, z)))
        gi = m.inverse(x.g)
        ok &= m.mul(x.g, gi) == ident
        return {"ok": ok, "xi": xi, "xy": xy}

    def check(out):
        text = "".join(coeff_text(lib, w.g) + series_text(lib, w.a)
                       for w in (out["xi"], out["xy"]))
        return Outcome(out["ok"], text)

    return Case(case_id, run, check)


def axioms_case(lib, case_id, gpd, order):
    """Exhaustive groupoid laws up to the truncation grade."""

    def run(api):
        return api.groupoids.axiom_violations(gpd, order)

    def check(out):
        return Outcome(not out, "\n".join(out), note="; ".join(out[:3]))

    return Case(case_id, run, check)


def pass_cases(inputs):
    lib = inputs["lib"]
    cases = [series_case(lib, *item) for item in inputs["series"]]
    cases += [ode_case(lib, *item) for item in inputs["paths"]]
    cases += [semidirect_case(lib, *item) for item in inputs["semidirect"]]
    cases += [euler_case(lib, *item) for item in inputs["euler"]]
    cases += [axioms_case(lib, *item) for item in inputs["axioms"]]
    return cases


def warmup_cases(inputs):
    """One case of each kind, on a small input: a box-groupoid series and
    a scalar path over nat, so that set-up does not depend on the seed."""
    lib = inputs["lib"]
    series = next(item for item in inputs["series"] if BOX_SPEC in item[0])
    return [series_case(lib, *series), ode_case(lib, *inputs["paths"][2]),
            semidirect_case(lib, *inputs["semidirect"][0]),
            euler_case(lib, *min(inputs["euler"], key=lambda item: item[0])),
            axioms_case(lib, *inputs["axioms"][0])]
