"""Independent correctness checks, run outside the timed region.

Verdicts on filtered modules are re-derived from the construction data the
generator kept: the eigenvalues, eigenvectors and monodromy links of an
eigenline module, the blocks of a slope normal form, or the weights of a
scalar module.  The stable subspaces are enumerated here, t_H is computed
from ranks with this package's own elimination, and the HN polygon is the
upper concave hull of the points (rank, degree).  `check(item, output)`
returns None when the output is right, else a one-line reason.  An
uncertified answer is never a failure.
"""

import itertools
from fractions import Fraction

from linalg import apply, coordinates, det, frac_rows, identity, rank, vp

P = 2
TRUE, FALSE, UNCERTIFIED = "certified-true", "certified-false", "uncertified"


# ---------------------------------------------------------------------------
# filtered modules


class Filtered:
    """A filtered (phi, N)-module read from the library's JSON input."""

    def __init__(self, inp):
        self.phi = frac_rows(inp["module"]["phi"])
        self.nil = frac_rows(inp["module"]["N"])
        self.n = len(self.phi)
        entries = sorted((e["index"], frac_rows(e["basis"])) for e in inp["hodge"]["flag"])
        self.first, self.last = entries[0][0], entries[-1][0]
        self.levels = {}
        cur = identity(self.n)
        for j in range(self.first, self.last + 1):
            for idx, basis in entries:
                if idx == j:
                    cur = basis
            self.levels[j] = (cur, rank(cur))

    def t_h(self, rows):
        """sum_j j * dim gr^j of the induced filtration on span(rows)."""
        k = rank(rows)
        total = (self.first - 1) * k
        for basis, dim in self.levels.values():
            total += dim + k - rank(basis + rows)
        return total

    def t_n(self, rows):
        """v_p(det phi|W) for a phi-stable W with independent basis rows."""
        images = [apply(self.phi, v) for v in rows]
        restricted = [coordinates(rows, img) for img in images]
        return vp(det(restricted), P)

    def stable(self, rows):
        k = rank(rows)
        return all(rank(rows + [apply(m, v) for v in rows]) == k for m in (self.phi, self.nil))


def lattice_points(fm, data):
    """(dim, deg) of every stable subspace, or None when there is no oracle."""
    kind = data["kind"]
    if kind == "eigen":
        vecs = frac_rows(data["eigvecs"])
        vals = [vp(Fraction(e), P) for e in data["eig"]]
        n = len(vecs)
        out = []
        for picks in itertools.product((0, 1), repeat=n):
            chosen = {i for i in range(n) if picks[i]}
            if any(i in chosen and j not in chosen for i, j in data["links"]):
                continue
            rows = [vecs[i] for i in sorted(chosen)]
            out.append((len(rows), fm.t_h(rows) - sum(vals[i] for i in chosen)))
        return out
    if kind == "snf":
        blocks = data["blocks"]
        std = identity(fm.n)
        out = []
        for picks in itertools.product((0, 1), repeat=len(blocks)):
            rows, tn = [], 0
            for (a, off, h), pick in zip(blocks, picks):
                if pick:
                    rows.extend(std[off : off + h])
                    tn += a
            out.append((len(rows), fm.t_h(rows) - tn))
        return out
    if kind == "scalar":
        ws = sorted(data["weights"], reverse=True)
        return [(d, sum(ws[:d]) - d * data["val"]) for d in range(fm.n + 1)]
    return None


def hull_slopes(points):
    """Slopes (with graded ranks) of the upper concave hull of (dim, deg)."""
    best = {}
    for d, deg in points:
        best[d] = max(best.get(d, deg), deg)
    hull = []
    for pt in sorted(best.items()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [(Fraction(y2 - y1, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def _degree(fm):
    full = identity(fm.n)
    return fm.t_h(full) - vp(det(fm.phi), P)


def _verdict_truth(query, points, deg_d):
    if query == "wa":
        return deg_d == 0 and all(deg <= 0 for _, deg in points)
    return all(deg <= deg_d for _, deg in points)


def _check_witness(fm, query, witness, deg_d):
    rows = frac_rows(witness)
    if rank(rows) != len(rows) or not fm.stable(rows):
        return "witness is not a stable subspace"
    deg = fm.t_h(rows) - fm.t_n(rows) if rows else 0
    if query == "wa" and (deg > 0 or (deg_d != 0 and len(rows) == fm.n)):
        return None
    if query == "acyclic" and deg > deg_d:
        return None
    return f"witness of degree {deg} does not violate (module degree {deg_d})"


def check_verdict(item, out):
    query = item["query"]
    fm = Filtered(item["input"])
    deg_d = _degree(fm)
    status = out["status"]
    if status == UNCERTIFIED:
        return None
    if status == FALSE:
        return _check_witness(fm, query, out["witness"], deg_d)
    points = lattice_points(fm, item["data"])
    if points is None:
        return "certified-true without a certified lattice"
    if not _verdict_truth(query, points, deg_d):
        return "certified-true but the oracle finds a violating subobject"
    return None


def _oracle_slopes(item):
    fm = Filtered(item["input"])
    points = lattice_points(fm, item["data"])
    return None if points is None else (hull_slopes(points), _degree(fm))


def check_hn(item, out):
    if not out["certified"]:
        return None
    oracle = _oracle_slopes(item)
    if oracle is None:
        return "certified HN filtration without a certified lattice"
    expected, deg_d = oracle
    got = [(Fraction(s["slope"]), s["graded_rank"]) for s in out["steps"]]
    slopes = [s for s, _ in got]
    if any(b >= a for a, b in zip(slopes, slopes[1:])):
        return "HN slopes do not strictly decrease"
    if sum(Fraction(s["graded_degree"]) for s in out["steps"]) != deg_d:
        return "graded degrees do not sum to the degree"
    if slopes[0] != expected[0][0]:
        return f"first HN slope {slopes[0]}, oracle {expected[0][0]}"
    if got != expected:
        return f"HN slopes {got}, oracle {expected}"
    return None


def check_vst(item, out):
    if not out["certified"]:
        return None
    oracle = _oracle_slopes(item)
    if oracle is None:
        return "certified vst without a certified lattice"
    expected, _ = oracle
    dim = sum(s * r for s, r in expected if s >= 0)
    ht = sum(r for s, r in expected if s >= 0)
    h1 = any(s < 0 for s, _ in expected)
    if (out["h0"]["dim"], out["h0"]["ht"], out["h1_nonvanishing"]) != (dim, ht, h1):
        return f"vst {out}, oracle h0=({dim},{ht}) h1={h1}"
    return None


# ---------------------------------------------------------------------------
# battery-mix


def _acyclic_truth(part):
    if part is None:
        return True
    fm = Filtered(part["input"])
    return _verdict_truth("acyclic", lattice_points(fm, part["data"]), _degree(fm))


def check_battery(item, out):
    data = item["data"]
    if out["certified"] and not out["consistent"]:
        return "certified battery report is inconsistent"
    for key, part in (("verdict_b_r", data["top"]), ("verdict_b_rm1", data["below"])):
        status = out[key]["status"]
        if status != UNCERTIFIED and (status == TRUE) != _acyclic_truth(part):
            return f"{key} is {status}, oracle acyclic={_acyclic_truth(part)}"
    return None


def check_dichotomy(item, out):
    if out["branch"] not in ("surjective", "positive-height-image"):
        return f"unknown branch {out['branch']}"
    if (out["branch"] == "surjective") != (out["deficit"] == 0):
        return "branch and deficit disagree"
    if not out["certified"]:
        return None
    top = item["data"]["top"]
    expected, _ = _oracle_slopes(top)
    deficit = sum(r for s, r in expected if s < 0)
    if out["deficit"] != deficit:
        return f"deficit {out['deficit']}, oracle {deficit}"
    return None


def _sheaf_cohomology(bundle, torsion):
    h0, h1 = [0, 0], [0, 0]
    for slope, copies in bundle:
        s = Fraction(slope)
        if s >= 0:
            h0[0] += copies * s.numerator
            h0[1] += copies * s.denominator
        else:
            h1[0] -= copies * s.numerator
            h1[1] += copies * s.denominator
    h0[0] += sum(sum(ls) for _, ls in torsion)
    return h0, h1


def check_cohdim(item, out):
    data = item["data"]
    h0, h1 = _sheaf_cohomology(data["bundle"], data["torsion"])
    got0 = [out["h0"]["dim"], out["h0"]["ht"]]
    got1 = [out["h1"]["dim"], out["h1"]["ht"]]
    if got0 != h0 or got1 != h1 or out["h1"]["quotient_type"] != (h1 != [0, 0]):
        return f"cohomology {out}, oracle h0={h0} h1={h1}"
    return None


def check_hom(item, out):
    """Hom(O(a), O(b)) = H^0(O(b - a)) with rank multiplicativity."""
    a, b = item["data"]["a"], item["data"]["b"]
    dim = ht = 0
    for s1, c1 in a["bundle"]:
        s1 = Fraction(s1)
        for s2, c2 in b["bundle"]:
            s2 = Fraction(s2)
            mu = s2 - s1
            copies = c1 * c2 * s1.denominator * s2.denominator // mu.denominator
            if mu >= 0:
                dim += copies * mu.numerator
                ht += copies * mu.denominator
        for _, lengths in b["torsion"]:
            dim += c1 * s1.denominator * sum(lengths)
    for p1, l1 in a["torsion"]:
        for p2, l2 in b["torsion"]:
            if p1 == p2:
                dim += sum(min(x, y) for x in l1 for y in l2)
    got = out["dimension"]
    if (got["dim"], got["ht"]) != (dim, ht) or out["qp_dim"] != (ht if dim == 0 else None):
        return f"hom {out}, oracle ({dim},{ht})"
    return None


def _summands(obj):
    return sorted(_key(s) for s in obj["summands"])


def _key(s):
    return tuple(sorted((k, tuple(v) if isinstance(v, list) else v) for k, v in s.items()))


def check_canfil(item, out):
    gt0, eq0, lt0 = (_summands(part) for part in out)
    pieces = item["data"]["pieces"]
    want = {"gt0": [], "eq0": [], "lt0": []}
    for s in pieces:
        if s["type"] in ("Ueff", "Qp"):
            want["lt0"].append(_key(s))
        elif s["type"] == "Tors" and s["point"] == "infty":
            want["eq0"].append(_key(s))
        else:
            want["gt0"].append(_key(s))
    if [gt0, eq0, lt0] != [sorted(want["gt0"]), sorted(want["eq0"]), sorted(want["lt0"])]:
        return f"canonical filtration {out}, oracle {want}"
    return None


def check_exact(item, out):
    if out is not item["data"]["exact"]:
        return f"check_exact returned {out}, constructed {item['data']['exact']}"
    return None


def check_height(item, out):
    if not out["certified"] or out["value"] != item["data"]["ht"]:
        return f"height {out}, oracle {item['data']['ht']}"
    return None


def _label_ht(label):
    return label["n"] if label["kind"] == "Qp" else 0


def check_ext(item, out):
    inp = item["input"]
    k = inp["k_degree"]
    euler = -k * _label_ht(inp["x"]) * _label_ht(inp["y"])
    if out["euler_qp"] != euler:
        return f"euler {out['euler_qp']}, oracle {euler}"
    if out["unit"] is not None:
        scale = k if out["unit"] == "K" else 1
        if scale * (out["ext0"] - out["ext1"] + out["ext2"]) != euler:
            return "Ext dimensions disagree with the Euler characteristic"
    return None


def check_mv(item, out):
    data = item["data"]
    if data["equal"]:
        if out["equal"] is not True or out["value"] != data["value"] or not out["certified"]:
            return f"mv_check {out}, oracle equal at {data['value']}"
    elif out["equal"] is not None or not out["violations"]:
        return f"mv_check {out}, oracle expects a violation"
    return None


CHECKS = {
    "hn": check_hn,
    "wa": check_verdict,
    "acyclic": check_verdict,
    "vst": check_vst,
    "battery": check_battery,
    "dichotomy": check_dichotomy,
    "cohdim": check_cohdim,
    "hom": check_hom,
    "canfil": check_canfil,
    "exact": check_exact,
    "height": check_height,
    "ext": check_ext,
    "mv": check_mv,
}


def check(item, out):
    if isinstance(out, dict) and "error" in out and len(out) == 1:
        return f"raised {out['error']}"
    try:
        return CHECKS[item["query"]](item, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def certified(item, out):
    """Whether an answer is certified; queries without a status always are."""
    if not isinstance(out, dict):
        return True
    if "status" in out:
        return out["status"] != UNCERTIFIED
    return out.get("certified", True)
