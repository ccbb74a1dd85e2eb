"""cell-geometry: boundary words, dimension extension and the construction
side of ``measures`` on lattice complexes; nothing enumerates G^K."""

from __future__ import annotations

import itertools

from harness import Case, Outcome

WHY = ("all-pairs box scans and repeated boundary-word compilation in cells; "
       "the geometry-compilation target, bypassed by the contraction engine")
CALIBRATION = "interpreter"

RECTANGLES = ((1, 1), (2, 1), (3, 1), (2, 2), (3, 2))
COSURFACES_PER_DECOMPOSITION = 12
CUBE_CASES = 40
S3_CASES = 8
GRIDS = (4, 6, 8)


# -- instances ---------------------------------------------------------------

def rectangle_edges(width, height, cuts):
    """Unit edges of the boundary of [0,w]x[0,h] plus guillotine cuts."""
    edges = set()
    for x in range(width):
        edges.update({((x, 0), 0), ((x, height), 0)})
    for y in range(height):
        edges.update({((0, y), 1), ((width, y), 1)})
    for axis, coord in cuts:
        if axis == 0:
            edges.update(((coord, y), 1) for y in range(height))
        else:
            edges.update(((x, coord), 0) for x in range(width))
    return sorted(edges)


def decompositions(width, height):
    """(cuts, whole, pieces) for the undivided rectangle and every two-piece
    guillotine cut."""
    whole = ((0, width), (0, height))
    out = [((), whole, ())]
    out += [(((0, c),), whole, (((0, c), (0, height)), ((c, width), (0, height))))
            for c in range(1, width)]
    out += [(((1, c),), whole, (((0, width), (0, c)), ((0, width), (c, height))))
            for c in range(1, height)]
    return out


def hand_word(spans, cells):
    """Independent rectangle-boundary rule: bottom and right unit edges
    count +1, top and left -1 (cells are positively oriented)."""
    (x0, x1), (y0, y1) = spans
    word = {}
    for pos, cell in enumerate(cells):
        bx, by = cell.base
        if cell.axes == (0,) and x0 <= bx < x1 and by in (y0, y1):
            word[pos] = 1 if by == y0 else -1
        elif cell.axes == (1,) and y0 <= by < y1 and bx in (x0, x1):
            word[pos] = 1 if bx == x1 else -1
    return word


def word_vector(pairs, n):
    out = [0] * n
    for pos, exp in pairs:
        out[pos] += exp
    return out


def grid_skeleton(lib, n, rng):
    """All unit edges of the n x n unit-square grid, in seeded order."""
    edge = lib.cells.edge_cell
    edges = ([edge((x, y), 0) for x in range(n) for y in range(n + 1)]
             + [edge((x, y), 1) for x in range(n + 1) for y in range(n)])
    rng.shuffle(edges)
    domains = [lib.cells.domain_box(((x, x + 1), (y, y + 1)))
               for x in range(n) for y in range(n)]
    return lib.cells.CellComplex(edges), domains


def cube(lib):
    edges = [lib.cells.edge_cell(base, axis) for axis in range(3)
             for base in itertools.product(*[[0, 1] if a != axis else [0]
                                             for a in range(3)])]
    faces = [lib.cells.domain_box(tuple((off, off) if a == axis else (0, 1)
                                        for a in range(3)))
             for axis in range(3) for off in (0, 1)]
    return edges, faces, lib.cells.domain_box(((0, 1), (0, 1), (0, 1)))


def generate(lib, rng):
    groups = {name: lib.groups.builtin_group(name) for name in ("Z2", "Z3", "S3")}
    refine = []
    for width, height in RECTANGLES:
        for d, (cuts, whole, pieces) in enumerate(decompositions(width, height)):
            edges = rectangle_edges(width, height, cuts)
            rng.shuffle(edges)
            cells = [lib.cells.edge_cell(base, axis) for base, axis in edges]
            complex_ = lib.cells.CellComplex(cells)
            for k in range(COSURFACES_PER_DECOMPOSITION):
                group = groups["Z2" if k % 2 == 0 else "Z3"]
                values = [rng.randrange(group.order) for _ in cells]
                refine.append((f"refine/{width}x{height}/d{d}/{k}", complex_, whole,
                               pieces, group, values))
    edges, faces, box = cube(lib)
    cubes = [(f"cube/{k}", groups["Z2" if k % 2 == 0 else "Z3"]) for k in range(CUBE_CASES)]
    cubes = [(cid, g, [rng.randrange(g.order) for _ in edges]) for cid, g in cubes]
    s3 = [(f"nonabelian/{k}", [rng.randrange(6) for _ in edges]) for k in range(S3_CASES)]
    grids = [(n, *grid_skeleton(lib, n, rng), rng.randrange(1, n)) for n in GRIDS]
    return {"lib": lib, "groups": groups, "refine": refine,
            "cube": (edges, faces, box), "cubes": cubes, "s3": s3, "grids": grids}


# -- work counts ---------------------------------------------------------------

def pairs(n):
    return n * (n - 1) // 2


def saturation_pairs(n_cells, domains):
    """Box comparisons of is_saturated: the regularity scan, the domain
    disjointness scan, and each domain facet against every cell."""
    facets = sum(len(d.facets()) for d in domains)
    return pairs(n_cells) + pairs(len(domains)) + facets * n_cells


# -- cases -------------------------------------------------------------------

def refine_case(lib, case_id, complex_, whole, pieces, group, values):
    """Refinement invariance: the whole rectangle's word equals the sum of
    its pieces' words, and the extension agrees through the cosurface."""
    dbox = lib.cells.domain_box
    whole_cell = dbox(whole)
    piece_cells = [dbox(p) for p in pieces]
    n = len(complex_)

    def run(api):
        c = api.cells
        cos = c.Cosurface(group, list(zip(complex_.cells, values)))
        whole_word = c.boundary_word(whole_cell, complex_)
        piece_words = [c.boundary_word(p, complex_) for p in piece_cells]
        whole_value = c.dimension_extend(cos, complex_, whole_cell)
        ok = whole_value == c.Cosurface_evaluate_word(cos, complex_, whole_word)
        if piece_cells:
            product = group.identity
            for p, word in zip(piece_cells, piece_words):
                value = c.dimension_extend(cos, complex_, p)
                ok &= value == c.Cosurface_evaluate_word(cos, complex_, word)
                product = group.mul(product, value)
            ok &= whole_value == product
        return ok, whole_word, piece_words, whole_value

    def check(out):
        ok, whole_word, piece_words, whole_value = out
        hand = word_vector(hand_word(whole, complex_.cells).items(), n)
        ok &= word_vector(whole_word, n) == hand
        if piece_words:
            summed = [sum(col) for col in zip(*(word_vector(w, n) for w in piece_words))]
            ok &= summed == hand
        return Outcome(ok, repr((whole_word, piece_words, whole_value)))

    words = 1 + len(piece_cells)
    # boundary_word and dimension_extend each compile one word per domain
    return Case(case_id, run, check, {"cells.word_cells_scanned": 2 * words * n})


def cube_case(lib, case_id, group, values, edges, faces, box):
    """Edge -> face -> cube extension is the identity, for the face
    complex in both orders."""
    cells = lib.cells
    edge_complex = cells.CellComplex(edges)
    face_orders = (cells.CellComplex(faces), cells.CellComplex(faces[::-1]))

    def run(api):
        c = api.cells
        cos = c.Cosurface(group, list(zip(edges, values)))
        on_faces = c.extend_abelian(cos, edge_complex, faces)
        cube_values = [c.dimension_extend(on_faces, fc, box) for fc in face_orders]
        return on_faces, cube_values

    def check(out):
        on_faces, cube_values = out
        face_values = [on_faces.value(f) for f in faces]
        return Outcome(cube_values == [group.identity] * 2,
                       repr((face_values, cube_values)), note=repr(cube_values))

    return Case(case_id, run, check, {
        "cells.word_cells_scanned": len(faces) * len(edges) + 2 * len(faces)})


def nonabelian_case(lib, case_id, group, values, edges, faces):
    """S3 has a trivial centre: the default and the explicit empty central
    assignment agree, and a non-central extra value is refused."""
    cells = lib.cells
    edge_complex = cells.CellComplex(edges)
    stray = cells.edge_cell((7, 7, 7), 0)
    non_central = next(g for g in group.elements() if g != group.identity)

    def run(api):
        c = api.cells
        cos = c.Cosurface(group, list(zip(edges, values)))
        default = c.extend_nonabelian(cos, edge_complex, faces)
        explicit = c.extend_nonabelian(cos, edge_complex, faces, center_assignment={})
        try:
            c.extend_nonabelian(cos, edge_complex, faces,
                                center_assignment={stray: non_central})
            refused = False
        except ValueError:
            refused = True
        return default, explicit, refused

    def check(out):
        default, explicit, refused = out
        face_values = [default.value(f) for f in faces]
        return Outcome(default.values == explicit.values and refused,
                       repr((face_values, refused)))

    return Case(case_id, run, check, {
        "cells.word_cells_scanned": 2 * len(faces) * len(edges)})


def grid_cases(lib, n, complex_, domains, at, density_group):
    """Construction-side checks on the n x n unit-square grid skeleton."""
    cob = lib.measures.CobordismBox(((0, n), (0, n)))
    size = len(complex_)
    keys = sorted(c.key() for c in complex_.cells)
    sat = saturation_pairs(size, domains)

    def regular(api):
        return api.cells.is_regular(complex_)

    def saturated(api):
        return api.cells.is_saturated(complex_, domains)

    def construct(api):
        m = api.measures
        return m.construct(complex_, domains, m.density(density_group)).words

    def cut_paste(api):
        m = api.measures
        res = m.cut(cob, complex_, at)
        pasted = m.paste(res.k, res.k_prime)
        again = m.cut(cob, pasted, at)
        return (again.k == res.k and again.k_prime == res.k_prime,
                sorted(c.key() for c in pasted.cells) == keys, res)

    def cobordism(api):
        return api.measures.is_complex_for_cobordism(complex_, cob, domains)

    def border(api):
        return api.measures.border_reduce(complex_, cob, domains)

    def check_true(out):
        return Outcome(out is True, repr(out))

    def check_words(words):
        ok = len(words) == len(domains) and all(len(w) == 4 for w in words)
        return Outcome(ok, repr(words))

    def check_cut(out):
        round_trip, same_cells, res = out
        text = repr([c.key() for c in res.k.cells]) + repr([c.key() for c in res.k_prime.cells])
        return Outcome(round_trip and same_cells, text)

    def check_border(pieces):
        boxes = sorted(tuple(p.boxes()) for p in pieces)
        return Outcome(len(pieces) == 4 * n - 4, repr((boxes, [p.border_labels for p in pieces])),
                       note=f"{len(pieces)} pieces")

    prefix = f"grid/{n}x{n}"
    return [
        Case(f"{prefix}/regular", regular, check_true, {"cells.box_pairs": pairs(size)}),
        Case(f"{prefix}/saturated", saturated, check_true, {"cells.box_pairs": sat}),
        Case(f"{prefix}/construct", construct, check_words, {
            "cells.box_pairs": pairs(size) + sat,
            "cells.word_cells_scanned": len(domains) * size}),
        Case(f"{prefix}/cut-paste", cut_paste, check_cut),
        Case(f"{prefix}/cobordism", cobordism, check_true, {"cells.box_pairs": sat}),
        Case(f"{prefix}/border", border, check_border),
    ]


def pass_cases(inputs):
    lib = inputs["lib"]
    edges, faces, box = inputs["cube"]
    cases = [refine_case(lib, *item) for item in inputs["refine"]]
    cases += [cube_case(lib, cid, g, values, edges, faces, box)
              for cid, g, values in inputs["cubes"]]
    cases += [nonabelian_case(lib, cid, inputs["groups"]["S3"], values, edges, faces)
              for cid, values in inputs["s3"]]
    for item in inputs["grids"]:
        cases += grid_cases(lib, *item, inputs["groups"]["Z2"])
    return cases


def warmup_cases(inputs):
    """Every case kind once; the grid kinds on the smallest grid."""
    lib = inputs["lib"]
    edges, faces, box = inputs["cube"]
    cube_id, group, cube_values = inputs["cubes"][0]
    s3_id, s3_values = inputs["s3"][0]
    return ([refine_case(lib, *inputs["refine"][-1]),
             cube_case(lib, cube_id, group, cube_values, edges, faces, box),
             nonabelian_case(lib, s3_id, inputs["groups"]["S3"], s3_values, edges, faces)]
            + grid_cases(lib, *inputs["grids"][0], inputs["groups"]["Z2"]))
