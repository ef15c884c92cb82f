"""Seeded input generators for the benchmark workloads.

Every item is a dict with the query to run, the library-format JSON input
the worker parses, and construction data (eigenvalues, eigenvectors, the
monodromy pattern, block slopes, Hodge weights, ...) that only the oracle
sees.  The same (workload, seed) always yields the same items.
"""

import hashlib
import json
import random
from fractions import Fraction

from linalg import det, identity, matmul, str_rows

P = 2
HN_QUERIES = ("hn", "acyclic", "vst", "wa")

# One round of hn-lattice: (kind, rank, monodromy chain, query, moved).
# Eigenline modules of rank 4-7, about half with a nonzero N along an
# eigenvalue chain; multiplicity-free slope normal forms of rank 5-9; and a
# minority of three in twenty-one without a certified lattice: a repeated
# eigenvalue and a valuation too large for the rational-root search (the
# sampled path, which answers uncertified) and scalar phi (the flag-chain
# path).  Weights equal to the Newton slopes make a generic flag weakly
# admissible, so wa and acyclic scan the whole lattice; "moved" weights give
# multi-step HN filtrations, and the moved wa and acyclic strata exercise
# certified-false witnesses.  The lattice size of each stratum depends on
# the rank only.  The strata are listed by rising cost: nine cheap ones,
# three alike ones in the middle, so that the median call falls inside one
# stratum and not between two, and nine costly ones.  A round takes a few
# seconds, so that a run times more than a hundred calls.
HN_ROUND = (
    ("eigen", 4, True, "wa", False), ("scalar", 5, False, "hn", True),
    ("eigen", 4, False, "hn", True), ("eigen", 4, True, "hn", True),
    ("snf", 5, False, "acyclic", False), ("eigen", 4, False, "acyclic", False),
    ("eigen", 4, True, "acyclic", True), ("eigen", 4, False, "wa", True),
    ("eigen", 4, True, "vst", True),
    ("snf", 6, False, "hn", True), ("snf", 6, False, "hn", True), ("snf", 6, False, "hn", True),
    ("eigen", 5, True, "vst", True), ("eigen", 5, False, "vst", True),
    ("snf", 7, False, "wa", False), ("repeated", 4, False, "hn", False),
    ("eigen", 6, True, "acyclic", False), ("big", 4, False, "hn", False),
    ("eigen", 6, False, "hn", True), ("snf", 9, False, "wa", False),
    ("eigen", 7, True, "hn", True),
)
HN_WARMUP = (("eigen", 3, True), ("snf", 4, False), ("repeated", 3, False), ("scalar", 3, False))


def _rng(workload, seed, stream):
    return random.Random(f"{workload}/{seed}/{stream}")


# ---------------------------------------------------------------------------
# filtered Frobenius modules


def _unimodular(rng, n):
    """Random integer matrix of determinant +-1 and its inverse."""
    ops = []
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        ops.append((i, j, rng.choice((-1, 1))))
    s, s_inv = identity(n), identity(n)
    for i, j, c in ops:
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
    for i, j, c in reversed(ops):
        s_inv[i] = [a - c * b for a, b in zip(s_inv[i], s_inv[j])]
    return s, s_inv


def _flag(rng, n, weights):
    """Full flag in general position realising the given integer weights."""
    while True:
        t = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if det(t) != 0:
            break
    weights = sorted(weights, reverse=True)
    flag = [
        {"index": j, "basis": str_rows([t[i] for i in range(n) if weights[i] >= j])}
        for j in range(weights[-1], weights[0] + 1)
    ]
    return {"flag": flag, "rank": n}


def _transfers(rng, weights):
    """Move floor(n/2) units of weight between random positions; the sum stays."""
    ws = list(weights)
    for _ in range(len(ws) // 2):
        i, j = rng.sample(range(len(ws)), 2)
        ws[i] += 1
        ws[j] -= 1
    return ws


def _bounded_weights(rng, n, lo, hi, total):
    """Random weights in [lo, hi] with the given sum."""
    ws = [rng.randint(lo, hi) for _ in range(n)]
    while sum(ws) != total:
        up = sum(ws) < total
        i = rng.choice([k for k in range(n) if (ws[k] < hi if up else ws[k] > lo)])
        ws[i] += 1 if up else -1
    return ws


def _module_json(phi, nil):
    return {"p": P, "phi": str_rows(phi), "N": str_rows(nil), "form": "matrix"}


def eigen_item(rng, n, chain, exps=None, weights=None, moved=True):
    """Conjugated diagonal with rational eigenvalues of distinct valuation.

    Without explicit valuations they are -1 .. n-2 in random order.  With
    `chain` the eigenvalues share a unit and N links floor(n/2) disjoint
    pairs of a lambda-line to the lambda/p-line, so the lattice size depends
    on the rank only.  Without explicit weights the module has degree zero
    and its weights are the valuations, `moved` by a few unit transfers.
    """
    if exps is None:
        exps = rng.sample(range(-1, n - 1), n)
    if chain:
        units = [rng.choice((1, -1))] * n
    else:
        units = [rng.choice((1, -1)) for _ in range(n)]
    eig = [Fraction(u) * Fraction(P) ** e for u, e in zip(units, exps)]
    nil_d = [[Fraction(0)] * n for _ in range(n)]
    links = []
    if chain:
        by_exp = sorted(range(n), key=lambda i: exps[i])
        for k in range(0, n - 1, 2):
            lower, upper = by_exp[k], by_exp[k + 1]
            if exps[upper] == exps[lower] + 1:
                links.append((upper, lower))
                nil_d[lower][upper] = Fraction(rng.choice((1, 2)))
    s, s_inv = _unimodular(rng, n)
    diag = [[eig[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    phi = matmul(matmul(s, diag), s_inv)
    nil = matmul(matmul(s, nil_d), s_inv)
    if weights is None:
        weights = _transfers(rng, exps) if moved else list(exps)
    data = {
        "kind": "eigen",
        "eig": [str(e) for e in eig],
        "eigvecs": str_rows([[s[r][i] for r in range(n)] for i in range(n)]),
        "links": links,
    }
    return {"module": _module_json(phi, nil), "hodge": _flag(rng, n, weights)}, data


SNF_SLOPES = [Fraction(a, h) for h in (1, 2, 3) for a in range(-2, 6) if Fraction(a, h).denominator == h]


def _companion(a, h):
    block = [[Fraction(0)] * h for _ in range(h)]
    for i in range(1, h):
        block[i][i - 1] = Fraction(1)
    block[0][h - 1] = Fraction(P) ** a
    return block


# Block sizes of the slope normal form of each rank, so that the lattice
# size (2^blocks) depends on the rank only.
SNF_BLOCKS = {4: (1, 1, 2), 5: (1, 2, 2), 6: (1, 1, 2, 2), 7: (1, 1, 2, 3),
              8: (1, 1, 1, 2, 3), 9: (1, 1, 2, 2, 3)}


def snf_slopes(rng, n):
    """Distinct random slopes, one block each, with the sizes SNF_BLOCKS[n]."""
    chosen = []
    for h in SNF_BLOCKS[n]:
        pool = [s for s in SNF_SLOPES if s.denominator == h and s not in chosen]
        chosen.append(rng.choice(pool))
    return sorted(chosen)


def snf_item(rng, n, slopes=None, weights=None, moved=True):
    """Multiplicity-free slope normal form: companion blocks in ascending slope."""
    slopes = slopes or snf_slopes(rng, n)
    phi = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    blocks = []
    for s in slopes:
        h = s.denominator
        for i, row in enumerate(_companion(s.numerator, h)):
            phi[at + i][at : at + h] = row
        blocks.append([s.numerator, at, h])
        at += h
    if weights is None:
        weights = []
        for a, _, h in blocks:  # the Newton weights of each block, spread evenly
            weights += [a // h] * (h - a % h) + [a // h + 1] * (a % h)
        if moved:
            weights = _transfers(rng, weights)
    module = {"p": P, "phi": str_rows(phi), "N": str_rows([[0] * n] * n), "form": "dm-normal"}
    data = {"kind": "snf", "blocks": blocks}
    return {"module": module, "hodge": _flag(rng, n, weights)}, data


def repeated_item(rng, n):
    """A repeated rational eigenvalue: no certified lattice, the sampled path."""
    exps = rng.sample(range(0, n), n - 1)
    exps.append(exps[0])
    eig = [Fraction(P) ** e for e in exps]
    s, s_inv = _unimodular(rng, n)
    diag = [[eig[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    phi = matmul(matmul(s, diag), s_inv)
    data = {"kind": "repeated"}
    weights = exps  # generic flag: no violating subspace, so always uncertified
    return {"module": _module_json(phi, [[0] * n] * n), "hodge": _flag(rng, n, weights)}, data


def scalar_item(rng, n):
    """Scalar phi = p^a: every subspace is stable, the flag-chain path."""
    a = rng.randint(0, 2)
    phi = [[Fraction(P) ** a if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    weights = _bounded_weights(rng, n, a - 1, a + 1, n * a)
    data = {"kind": "scalar", "val": a, "weights": weights}
    return {"module": _module_json(phi, [[0] * n] * n), "hodge": _flag(rng, n, weights)}, data


def big_item(rng, n):
    """Distinct valuations, one of them beyond the rational-root search (2^41 > 10^12)."""
    exps = rng.sample(range(0, n), n - 1) + [41]
    inp, data = eigen_item(rng, n, False, exps=exps, weights=exps)
    return inp, {"kind": "big"}


def _stratum_item(rng, kind, n, chain, moved=True):
    if kind == "eigen":
        return eigen_item(rng, n, chain, moved=moved)
    if kind == "big":
        return big_item(rng, n)
    if kind == "snf":
        return snf_item(rng, n, moved=moved)
    if kind == "repeated":
        return repeated_item(rng, n)
    return scalar_item(rng, n)


def hn_lattice(seed, rounds):
    """Warm-up items, then `rounds` shuffled rounds of HN_ROUND."""
    rng = _rng("hn-lattice", seed, "warmup")
    warm = []
    for kind, n, chain in HN_WARMUP:
        inp, data = _stratum_item(rng, kind, n, chain)
        warm.extend({"query": q, "input": inp, "data": data} for q in HN_QUERIES)
    rng = _rng("hn-lattice", seed, "timed")
    timed = []
    for _ in range(rounds):
        batch = []
        for kind, n, chain, query, moved in HN_ROUND:
            inp, data = _stratum_item(rng, kind, n, chain, moved)
            batch.append({"query": query, "input": inp, "data": data})
        rng.shuffle(batch)
        timed.extend(batch)
    return warm, timed


# ---------------------------------------------------------------------------
# battery-mix


# Slope normal forms of battery-mix: block sizes of each rank, as in SNF_BLOCKS.
PAIR_SNF_BLOCKS = {1: (1,), 2: (2,), 3: (1, 2)}


def _synthetic_pair(rng, kind, n, bound):
    """Filtered module of rank n with slopes and weights in [0, bound] (criterion-06 style)."""
    weights = [rng.randint(0, bound) for _ in range(n)]
    if kind == "eigen":
        return eigen_item(rng, n, False, exps=rng.sample(range(0, bound + 1), n), weights=weights)
    slopes = []
    for h in PAIR_SNF_BLOCKS[n]:
        slopes.append(rng.choice([s for s in SNF_SLOPES if 0 <= s <= bound and s.denominator == h
                                  and s not in slopes]))
    return snf_item(rng, n, slopes=sorted(slopes), weights=weights)


def _pair_json(inp):
    return {"hk": inp["module"], "lattice": inp["hodge"]}


def battery_item(rng, r, top, below):
    """Two-degree synthetic cohomology: top (kind, rank) in degree r, optional below in r-1."""
    top = _synthetic_pair(rng, *top, r)
    degrees = {"r": _pair_json(top[0])}
    if below:
        below = _synthetic_pair(rng, *below, r - 1)
        degrees["r-1"] = _pair_json(below[0])
    return {"r": r, "degrees": degrees}, {"top": _part(top), "below": _part(below)}


def _part(item):
    return None if item is None else {"input": item[0], "data": item[1]}


def dichotomy_item(rng, r, top):
    inp, data = _synthetic_pair(rng, *top, r)
    return {"hk": inp["module"], "lattice": inp["hodge"], "r": r}, {"top": {"input": inp, "data": data}}


SHEAF_SLOPES = ("-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "2/3", "3/2", "2")


def _sheaf(rng):
    bundle = [[s, rng.randint(1, 2)] for s in rng.sample(SHEAF_SLOPES, rng.randint(1, 3))]
    torsion = []
    for point in ("infty", "x"):
        if rng.random() < 0.3:
            torsion.append([point, sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))), reverse=True)])
    obj = {
        "bundle": [{"slope": s, "copies": c} for s, c in bundle],
        "torsion": [{"point": p, "lengths": ls} for p, ls in torsion],
    }
    return obj, {"bundle": bundle, "torsion": torsion}


def cohdim_item(rng):
    return _sheaf(rng)


def hom_item(rng):
    (a, da), (b, db) = _sheaf(rng), _sheaf(rng)
    return {"a": a, "b": b}, {"a": da, "b": db}


BC_PAIRS = ((1, 1), (1, 2), (2, 1), (3, 2), (1, 3))


def _bc_summands(rng, quotients=True, away=True):
    out = [{"type": "Ueff", "d": d, "h": h, "copies": rng.randint(1, 2)}
           for d, h in BC_PAIRS if rng.random() < 0.3]
    if quotients:
        out += [{"type": "Uquot", "d": d, "h": h, "copies": 1} for d, h in BC_PAIRS if rng.random() < 0.2]
    for point in ("infty", "x") if away else ("infty",):
        if rng.random() < 0.4:
            out.append({"type": "Tors", "point": point,
                        "lengths": sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))), reverse=True)})
    qp = rng.randint(0, 2)
    if qp:
        out.append({"type": "Qp", "n": qp})
    return out


def _bc_dim(summands):
    dim = ht = 0
    for s in summands:
        if s["type"] == "Ueff":
            dim, ht = dim + s["copies"] * s["d"], ht + s["copies"] * s["h"]
        elif s["type"] == "Uquot":
            dim, ht = dim + s["copies"] * s["d"], ht - s["copies"] * s["h"]
        elif s["type"] == "Tors":
            dim += sum(s["lengths"])
        else:
            ht += s["n"]
    return {"dim": dim, "ht": ht}


def canfil_item(rng):
    pieces = _bc_summands(rng)
    return {"summands": pieces}, {"pieces": pieces}


def exact_item(rng):
    """0 -> W1 -> W1+W3 -> W3 -> 0, valid or corrupted (criterion-05 style)."""
    w1, w3 = _bc_summands(rng, away=False), _bc_summands(rng, away=False)
    d1, d3 = _bc_dim(w1), _bc_dim(w3)
    seq = [{"summands": w1}, {"summands": w1 + w3}, {"summands": w3}]
    zero = {"dim": 0, "ht": 0}
    arrows = [{"ker": zero, "im": d1}, {"ker": d1, "im": d3}]
    mode = rng.randrange(4)
    if mode == 1:
        arrows[0] = {"ker": zero, "im": {"dim": d1["dim"] + 1, "ht": d1["ht"]}}
    elif mode == 2:
        arrows[1] = {"ker": {"dim": d1["dim"], "ht": d1["ht"] + 1}, "im": d3}
    elif mode == 3:
        seq[1] = {"summands": w1 + w3 + [{"type": "Qp", "n": 1}]}
    return {"sequence": seq, "arrows": arrows}, {"exact": mode == 0}


def height_item(rng):
    """Non-positive-curvature object (criterion-08 style): rank = height."""
    pieces = _bc_summands(rng, quotients=False, away=False)
    obj = {"summands": pieces}
    if rng.random() < 0.3:
        obj = {"torsion_core": [rng.randint(1, 3)], "quotient": obj}
    return obj, {"ht": _bc_dim(pieces)["ht"]}


def _label(rng):
    kind = rng.choice(("C", "B", "Qp"))
    if kind == "C":
        return {"kind": "C", "twist": rng.randint(-3, 3)}
    if kind == "B":
        return {"kind": "B", "k": rng.randint(1, 4)}
    return {"kind": "Qp", "n": rng.randint(1, 3)}


def ext_item(rng):
    return {"x": _label(rng), "y": _label(rng), "k_degree": rng.randint(1, 3)}, {}


def _part_with_height(rng, ht):
    h = rng.randint(1, ht)
    out = [{"type": "Ueff", "d": 1, "h": h, "copies": 1}] if rng.random() < 0.5 else []
    qp = ht - (h if out else 0)
    if qp:
        out.append({"type": "Qp", "n": qp})
    if rng.random() < 0.5:
        out.append({"type": "Tors", "point": "infty", "lengths": [rng.randint(1, 3)]})
    return out


def _split_row(parts):
    """Exact row 0 -> X1 -> X1+X2 -> X2+X3 -> X3 -> 0."""
    objs = [parts[0]] + [a + b for a, b in zip(parts, parts[1:])] + [parts[-1]]
    zero = {"dim": 0, "ht": 0}
    kills = [[]] + parts
    arrows = [{"ker": _bc_dim(kills[i]) if kills[i] else zero, "im": _bc_dim(parts[i])}
              for i in range(len(parts))]
    return {"objects": [{"summands": o} for o in objs], "arrows": arrows}


def mv_item(rng):
    heights = [rng.randint(1, 3) for _ in range(3)]
    row_a = _split_row([_part_with_height(rng, h) for h in heights])
    equal = rng.random() < 0.75
    if not equal:
        heights[0] += 1
    row_b = _split_row([_part_with_height(rng, h) for h in heights])
    return {"row_a": row_a, "row_b": row_b, "r": 1}, {"equal": equal, "value": heights[2]}


# One round of battery-mix: (query, generator arguments).  The battery and
# dichotomy (two thirds of the calls, nearly all of the time) in fixed
# classes of degree r and (kind, rank) of each degree, interleaved with the
# cheap sheaf, bc and diagram bookkeeping calls.
BATTERY_ROUND = (
    ("battery", (1, ("eigen", 2), None)), ("dichotomy", (1, ("snf", 2))), ("cohdim", ()),
    ("battery", (1, ("snf", 2), None)), ("hom", ()), ("dichotomy", (2, ("eigen", 3))),
    ("battery", (2, ("eigen", 3), ("snf", 2))), ("canfil", ()),
    ("battery", (2, ("snf", 3), ("eigen", 2))), ("dichotomy", (2, ("snf", 3))), ("exact", ()),
    ("battery", (2, ("eigen", 3), None)), ("height", ()), ("dichotomy", (3, ("eigen", 3))),
    ("battery", (3, ("eigen", 3), ("eigen", 2))), ("ext", ()), ("dichotomy", (3, ("snf", 3))),
    ("battery", (3, ("snf", 3), ("snf", 2))), ("mv", ()), ("battery", (3, ("eigen", 3), None)),
    ("dichotomy", (1, ("eigen", 1))),
)
BATTERY_MAKERS = {
    "battery": battery_item, "dichotomy": dichotomy_item, "cohdim": cohdim_item,
    "hom": hom_item, "canfil": canfil_item, "exact": exact_item, "height": height_item,
    "ext": ext_item, "mv": mv_item,
}


def battery_mix(seed, rounds):
    rng = _rng("battery-mix", seed, "warmup")
    warm = []
    for query, args in dict(reversed(BATTERY_ROUND)).items():  # the first class of each query
        inp, data = BATTERY_MAKERS[query](rng, *args)
        warm.append({"query": query, "input": inp, "data": data})
    rng = _rng("battery-mix", seed, "timed")
    timed = []
    for _ in range(rounds):
        for query, args in BATTERY_ROUND:
            inp, data = BATTERY_MAKERS[query](rng, *args)
            timed.append({"query": query, "input": inp, "data": data})
    return warm, timed


WORKLOADS = {"hn-lattice": hn_lattice, "battery-mix": battery_mix}
ROUND_SIZE = {"hn-lattice": len(HN_ROUND), "battery-mix": len(BATTERY_ROUND)}


def fingerprint(items):
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def cli_warmup(seed):
    """Two CLI inputs outside the fixture corpus, to warm the file cache."""
    rng = _rng("cli-corpus", seed, "warmup")
    coeffs = [str(rng.choice((1, -1)) * P ** rng.randint(0, 4)) for _ in range(4)] + ["1"]
    inp, _ = eigen_item(rng, 2, False)
    return [{"command": "newton", "input": {"coefficients": coeffs, "p": P}},
            {"command": "hn", "input": inp}]
