"""config-measure: configuration-measure checks that enumerate G^K in
``measures``, plus the heat semigroup in ``groups``/``measures`` and the
float-coefficient measure series in ``series``."""

from __future__ import annotations

import numpy as np

from harness import Case, Outcome

WHY = ("G^K enumeration in measures (Markov, cut/paste, reordering) over "
       "abelian and non-abelian groups of equal order; the contraction engine's target")
CALIBRATION = "interpreter"

GROUPS = ("Z2", "Z3", "Z6", "S3", "Q8")
STRIP_GROUPS = ("Z2", "Z3", "Z6", "S3")   # Q8's strip has 8^7 configurations
# Markov runs on every strip; factorization and reordering on the Z6/S3
# strips (6^7 configurations) would each add ~3 s a pass and leave too few
# passes in a run for a steady median.
STRIP_ONLY_MARKOV_GROUPS = ("Z6", "S3")
CHAIN_LENGTHS = (3, 4, 5)
CHAIN_PERMS = 2
PLAQUETTE_PERMS = 4
SEMIGROUP_TIMES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
CONVOLVE_PAIRS = 4
SERIES_SPEC = "interval:0..5"
SERIES_ORDER = 5
TOL = 1e-12
REORDER_TOL = 1e-15


# -- instances ---------------------------------------------------------------

def chain(lib, length):
    cells = [lib.cells.point_cell((i,)) for i in range(length)]
    domains = [lib.cells.domain_box(((i, i + 1),)) for i in range(length - 1)]
    return lib.cells.CellComplex(cells), domains


def plaquette(lib):
    edge = lib.cells.edge_cell
    cells = [edge((0, 0), 0), edge((1, 0), 1), edge((0, 1), 0), edge((0, 0), 1)]
    return lib.cells.CellComplex(cells), [lib.cells.domain_box(((0, 1), (0, 1)))]


def strip(lib):
    """Two unit squares side by side; the middle edge (position 3) splits."""
    edge = lib.cells.edge_cell
    cells = [edge((0, 0), 1), edge((0, 0), 0), edge((0, 1), 0), edge((1, 0), 1),
             edge((1, 0), 0), edge((1, 1), 0), edge((2, 0), 1)]
    domains = [lib.cells.domain_box(((0, 1), (0, 1))),
               lib.cells.domain_box(((1, 2), (0, 1)))]
    return lib.cells.CellComplex(cells), domains


def indicator(extreme, target):
    """1 when the side's extreme-position cell carries ``target``."""
    return lambda vals: 1.0 if vals[extreme(vals)] == target else 0.0


def generate(lib, rng):
    groups = {name: lib.groups.builtin_group(name) for name in GROUPS}
    inst = {f"chain{n}": chain(lib, n) for n in CHAIN_LENGTHS}
    inst["plaquette"] = plaquette(lib)
    inst["strip"] = strip(lib)
    draws = {}
    for gname, group in groups.items():
        order = group.order
        draws[gname] = {
            "times": tuple(rng.sample(SEMIGROUP_TIMES, 4)),
            "pairs": [tuple(rng.sample(SEMIGROUP_TIMES, 2)) for _ in range(CONVOLVE_PAIRS)],
            "markov": [(rng.choice((max, min)), rng.randrange(order),
                        rng.choice((max, min)), rng.randrange(order))
                       for _ in range(8)],
            "perms": {name: [tuple(rng.sample(range(len(inst[name][0])),
                                              len(inst[name][0])))
                             for _ in range(PLAQUETTE_PERMS if name == "plaquette"
                                            else CHAIN_PERMS)]
                      for name in inst},
        }
    return {"lib": lib, "groups": groups, "inst": inst, "draws": draws, "oracle": {}}


# -- reorder oracle ----------------------------------------------------------

def reorder_oracle(group, words, q_tables, n_cells, perm):
    """max |mu_K(C) - mu_{sigma K}(sigma C)| by vectorised enumeration of
    G^K, independent of the library's loops: sigma K reads each domain
    word in the permuted cell order, with the same products of q values."""
    table = np.array(group.table)
    inverse = np.array(group.inv_table)
    configs = np.indices((group.order,) * n_cells).reshape(n_cells, -1)
    where = {old: new for new, old in enumerate(perm)}

    def density(word_list):
        out = np.ones(configs.shape[1])
        for word, q in zip(word_list, q_tables):
            phi = np.full(configs.shape[1], group.identity)
            for pos, exp in word:
                v = configs[pos] if exp > 0 else inverse[configs[pos]]
                phi = table[phi, v]
            out *= np.asarray(q)[phi]
        return out

    moved = [sorted(word, key=lambda pe: where[pe[0]]) for word in words]
    return float(np.max(np.abs(density(words) - density(moved))))


# -- cases -------------------------------------------------------------------

def semigroup_case(gname, group, times):
    """The four semigroup axioms of the heat density over seeded times."""

    def run(api):
        return api.measures.semigroup_axiom_residuals(api.measures.density(group), times)

    def check(res):
        ok = (res["unit"] == 0 and res["semigroup"] <= TOL and res["central"] <= TOL
              and res["mass"] <= TOL and res["positivity"] <= REORDER_TOL
              and res["weak_continuity_monotone"])
        floats = {k: (float(res[k]), TOL)
                  for k in ("unit", "semigroup", "central", "mass", "positivity")}
        return Outcome(ok, repr(res["weak_continuity_monotone"]), floats, note=repr(res))

    return Case(f"semigroup/{gname}", run, check)


def convolve_case(gname, group, pairs):
    """q_t * q_s = q_{t+s} by direct group convolution."""

    def run(api):
        m = api.measures
        density = m.density(group)
        worst = 0.0
        for t, s in pairs:
            lhs = api.groups.convolve(m.density_q(density, t), m.density_q(density, s))
            rhs = m.density_q(density, t + s)
            worst = max(worst, max(abs(a - b) for a, b in zip(lhs.values, rhs.values)))
        return worst

    def check(worst):
        return Outcome(worst <= TOL, floats={"worst": (worst, TOL)}, note=repr(worst))

    return Case(f"convolve/{gname}", run, check)


def series_case(lib, gname, group):
    """Multiplicativity of the measure-valued series on interval:0..5."""
    gpd = lib.groupoids.from_spec(SERIES_SPEC)

    def run(api):
        m = api.measures
        series = m.measure_series(gpd, m.density(group), SERIES_ORDER)
        return m.measure_series_multiplicativity(series, tol=TOL)

    def check(out):
        ok, worst = out
        return Outcome(ok, floats={"worst": (worst, TOL)}, note=repr(worst))

    return Case(f"measure-series/{gname}", run, check)


def markov_case(gname, group, name, complex_, domains, split, draw):
    """Conditional independence given the cell at ``split``."""
    ext_plus, t_plus, ext_minus, t_minus = draw

    def run(api):
        m = api.measures
        measure = m.construct(complex_, domains, m.density(group))
        return m.markov_check(measure, split, split, indicator(ext_plus, t_plus),
                              indicator(ext_minus, t_minus))

    def check(out):
        table, residual = out
        rows = sorted(table.items())
        floats = {"residual": (residual, TOL)}
        for key, pair in rows:
            if pair is not None:
                floats[f"lhs{key}"] = (pair[0], TOL)
        return Outcome(residual <= TOL, repr([k for k, v in rows if v is None]),
                       floats, note=repr(residual))

    return Case(f"markov/{gname}/{name}/split{split}", run, check,
                {"measures.config_space": group.order ** len(complex_)})


def factorization_case(lib, gname, group, name, complex_, domains, cob_spans, at):
    """mu_K(C) mu_K'(C') = mu_K''(C'') after cutting at ``at``, and the
    cut -> paste -> cut round trip."""
    cob = lib.measures.CobordismBox(cob_spans)
    later = [d for d in domains if d.box()[0][0] >= at]
    earlier = [d for d in domains if d.box()[0][1] <= at]

    def run(api):
        m = api.measures
        res = m.cut(cob, complex_, at)
        ok, worst = m.factorization_check(res.k, res.k_prime, complex_, later, earlier,
                                          m.density(group), tol=TOL)
        again = m.cut(cob, m.paste(res.k, res.k_prime), at)
        return ok, worst, again.k == res.k and again.k_prime == res.k_prime, res

    def check(out):
        ok, worst, round_trip, res = out
        text = repr([c.key() for c in res.k.cells]) + repr([c.key() for c in res.k_prime.cells])
        return Outcome(ok and round_trip, text, {"worst": (worst, TOL)},
                       note=f"worst={worst!r} round_trip={round_trip}")

    return Case(f"factorization/{gname}/{name}/cut{at}", run, check,
                {"measures.config_space": group.order ** len(complex_)})


def ordering_case(lib, gname, group, complex_, domains):
    """A pasted domain order with the later piece first must be refused
    for a non-abelian group, not silently reordered."""
    cob = lib.measures.CobordismBox(((0, len(complex_) - 1),))
    later = [d for d in domains if d.box()[0][0] >= 1]
    earlier = [d for d in domains if d.box()[0][1] <= 1]

    def run(api):
        m = api.measures
        res = m.cut(cob, complex_, 1)
        try:
            m.factorization_check(res.k, res.k_prime, complex_, later, earlier,
                                  m.density(group),
                                  domains_pasted=tuple(later) + tuple(earlier))
        except ValueError:
            return True
        return False

    def check(refused):
        return Outcome(refused, repr(refused))

    return Case(f"ordering/{gname}", run, check)


def reorder_case(inputs, gname, group, name, complex_, domains, k, perm):
    """max |mu_{sigma K} - mu_K| for one permutation: at most 1e-15 for an
    abelian group, else equal to the vectorised oracle."""
    cache = inputs["oracle"]

    def run(api):
        m = api.measures
        measure = m.construct(complex_, domains, m.density(group))
        return measure, m.reorder_max_difference(measure, perm)

    def check(out):
        measure, diff = out
        if group.is_abelian:
            expected = 0.0
        else:
            key = (gname, name, perm)
            if key not in cache:
                cache[key] = reorder_oracle(group, measure.words, measure.q_tables,
                                            len(complex_), perm)
            expected = cache[key]
        ok = abs(diff - expected) <= REORDER_TOL
        return Outcome(ok, floats={"difference": (diff, REORDER_TOL)},
                       note=f"{diff!r} vs {expected!r}")

    return Case(f"reorder/{gname}/{name}/{k}", run, check,
                {"measures.config_space": group.order ** len(complex_)})


def pass_cases(inputs):
    lib, inst = inputs["lib"], inputs["inst"]
    cases = []
    for gname, group in inputs["groups"].items():
        draw = inputs["draws"][gname]
        markov_draws = iter(draw["markov"])
        cases.append(semigroup_case(gname, group, draw["times"]))
        cases.append(convolve_case(gname, group, draw["pairs"]))
        cases.append(series_case(lib, gname, group))
        for n in CHAIN_LENGTHS:
            complex_, domains = inst[f"chain{n}"]
            for p in range(1, n - 1):
                cases.append(markov_case(gname, group, f"chain{n}", complex_,
                                         domains, p, next(markov_draws)))
                cases.append(factorization_case(lib, gname, group, f"chain{n}",
                                                complex_, domains, ((0, n - 1),), p))
        if not group.is_abelian:
            cases.append(ordering_case(lib, gname, group, *inst["chain3"]))
        if gname in STRIP_GROUPS:
            complex_, domains = inst["strip"]
            cases.append(markov_case(gname, group, "strip", complex_, domains, 3,
                                     next(markov_draws)))
            if gname not in STRIP_ONLY_MARKOV_GROUPS:
                cases.append(factorization_case(lib, gname, group, "strip", complex_,
                                                domains, ((0, 2), (0, 1)), 1))
        for name, perms in draw["perms"].items():
            if name == "strip" and (gname not in STRIP_GROUPS
                                    or gname in STRIP_ONLY_MARKOV_GROUPS):
                continue
            for k, perm in enumerate(perms):
                cases.append(reorder_case(inputs, gname, group, name, *inst[name],
                                          k, perm))
    return cases


def warmup_cases(inputs):
    """Every case kind once, on the smallest instance of Z2 and S3."""
    cases = [c for c in pass_cases(inputs)
             if c.id.split("/")[1] in ("Z2", "S3")
             and ("/strip" not in c.id and "chain4" not in c.id and "chain5" not in c.id)]
    seen, out = set(), []
    for case in cases:
        kind = (case.id.split("/")[0], case.id.split("/")[1])
        if kind not in seen:
            seen.add(kind)
            out.append(case)
    return out
