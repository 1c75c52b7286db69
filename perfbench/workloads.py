"""The benchmark's workloads: inputs from a seed, timed operations, checks.

A workload is built from ``(seed, outdir)``; building it imports the
package and makes the inputs, which is what ``setup_s`` times.  Its
``operations()`` are run in order and timed one by one; each gets the
results of the earlier ones.  ``checks(results)`` then judges the
results against independent computations and properties, and runs the
negative controls: deliberately wrong inputs that must be rejected.
Checks and controls are not part of the timed work.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from triggaudin import cli, gaudin, qside, suites
from triggaudin.rationals import QQ
from triggaudin.tensor import AuxTensor
from triggaudin.weyl import DiffOp, QDiffOp

import checks

# The sites' points, up to order and a common sign.  Reordering the sites
# or negating every point leaves the size of every number in the work
# unchanged, so all seeds cost the same; other magnitudes do not (|a| = 3
# against |a| = 1 moves wall_s by about 15%).
POINTS = (Fraction(1, 2), Fraction(3))


def points_for(seed):
    """Two distinct nonzero points: the seed picks the order and the sign."""
    rng = random.Random(seed)
    sign = rng.choice((-1, 1))
    return tuple(sign * a for a in rng.sample(POINTS, 2))


def perturbed(points):
    """The same points with the last one moved to another valid value."""
    *head, last = points
    moved = last + 1
    while moved == 0 or moved in head:
        moved += 1
    return tuple(head) + (moved,)


def points_arg(points):
    # "--points=-1,2": the split form "--points -1,2" is refused by argparse
    return "--points=" + ",".join(str(p) for p in points)


# -- canonical fingerprint of results -----------------------------------


def _canon(value):
    if isinstance(value, (DiffOp, QDiffOp)):
        return ["op", [[k, _canon(t)] for k, t in sorted(value.coeffs.items())]]
    if isinstance(value, AuxTensor):
        return ["t", [[r, c, repr(v)] for (r, c), v in value.sorted_entries()]]
    if isinstance(value, gaudin.FamilyMember):
        return ["member", value.label(), _canon(value.op)]
    if isinstance(value, dict):
        return ["d", sorted([str(k), _canon(v)] for k, v in value.items())]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return repr(value)


def fingerprint(results):
    """SHA-256 of a canonical rendering of a round's results."""
    text = json.dumps(_canon(results), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _read_and_remove(path):
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


# -- workloads -----------------------------------------------------------


class ClassicalFamily:
    """Both theta routes at m = 4 (N = 2), then the N = 3 family for
    m <= 3, shifted and unshifted, with its checks and its document."""

    name = "classical-family"

    def __init__(self, seed, outdir):
        self.points = points_for(seed)
        self.rep2 = gaudin.GaudinRep(2, self.points)
        self.rep3 = gaudin.GaudinRep(3, self.points)
        self.doc_path = os.path.join(outdir, "family-%d.json" % os.getpid())
        self.argv = ["hamiltonians", "--n", "3", "--sites", "2",
                     points_arg(self.points), "--m-max", "3",
                     "--out", self.doc_path]

    def operations(self):
        r2, r3 = self.rep2, self.rep3
        return [
            ("theta_generating_m4", lambda res: gaudin.theta_generating(r2, 4)),
            ("theta_mbar_m4", lambda res: gaudin.theta_mbar(r2, 4)),
            ("explicit_m1-3", lambda res: [
                (gaudin.explicit_theta(r2, m), gaudin.theta_generating(r2, m))
                for m in (1, 2, 3)]),
            ("extract_family", lambda res: gaudin.extract_family(r3, 3)),
            ("commutativity", lambda res: gaudin.commutativity_report(
                res["extract_family"])),
            ("extract_family_shifted",
             lambda res: gaudin.extract_family(r3, 3, True)),
            ("commutativity_shifted", lambda res: gaudin.commutativity_report(
                res["extract_family_shifted"])),
            ("quad_residue", lambda res: gaudin.quad_residue_check(r3)),
            ("hamiltonians_document", self._document),
        ]

    def _document(self, res):
        code = cli.main(self.argv)
        return code, _read_and_remove(self.doc_path)

    def checks(self, res):
        out = [("theta routes agree at m=4",
                (res["theta_generating_m4"] - res["theta_mbar_m4"]).is_zero())]
        for m, (closed, generated) in zip((1, 2, 3), res["explicit_m1-3"]):
            out.append(("explicit_theta agrees at m=%d" % m,
                        (closed - generated).is_zero()))
        out.append(("family commutes", res["commutativity"]["pass"]))
        out.append(("shifted family commutes",
                    res["commutativity_shifted"]["pass"]))
        out.append(("quadratic residues", res["quad_residue"]["pass"]))
        code, data = res["hamiltonians_document"]
        out.append(("hamiltonians exits 0", code == 0))
        doc = json.loads(data)
        family = res["extract_family"]
        out.append(("document lists the extracted family",
                    _document_matches(doc, family)))
        ops = checks.document_operators(doc)
        out.append(("document commutators vanish with plain Fractions",
                    len(ops) > 1 and not checks.noncommuting_pairs(ops)))
        # negative controls
        out.append(("control: routes at other points differ",
                    routes_at_other_points_differ(self.rep2)))
        out.append(("control: a distinct diagonal fails the document check",
                    checks.diagonal_is_rejected(ops, doc["operators"][0]["dim"])))
        out.append(("control: commutativity_report flags a foreign member",
                    foreign_member_is_flagged(family)))
        return out


def routes_at_other_points_differ(rep, m=2):
    """theta_m at moved points must differ from theta_m at ``rep``."""
    other = gaudin.GaudinRep(rep.N, perturbed(rep.points))
    return not (gaudin.theta_generating(other, m)
                - gaudin.theta_mbar(rep, m)).is_zero()


def foreign_member_is_flagged(family):
    """A family plus an operator with distinct diagonal entries must not
    pass ``commutativity_report``."""
    space = family[0].op.space
    diagonal = checks.distinct_diagonal(space.dim)
    foreign = gaudin.FamilyMember(0, 0, ("poly", 0),
                                  AuxTensor(space, QQ, diagonal))
    return not gaudin.commutativity_report(family + [foreign])["pass"]


def twisted_pair_fails(rep):
    """Elements of the untwisted and the twisted family do not commute."""
    return not qside.bethe_commut_check(rep, ("antisym", 1, False),
                                        ("antisym", 1, True))


def _document_matches(doc, family):
    if len(doc["operators"]) != len(family):
        return False
    for op, member in zip(doc["operators"], family):
        entries = [[r, c, str(v)] for (r, c), v in member.op.sorted_entries()]
        if (op["m"], op["k"], op["entries"]) != (member.m, member.k, entries):
            return False
    return True


class QIdentities:
    """The q-side identities at N = 2 with two sites."""

    name = "q-identities"

    def __init__(self, seed, outdir):
        self.points = points_for(seed)
        self.rep = qside.QRep(2, self.points)

    def operations(self):
        rep = self.rep
        ops = [("exchange", lambda res: qside.rll_check(rep))]
        for with_d in (False, True):
            specs = [(kind, k, with_d) for kind in ("antisym", "newton")
                     for k in (1, 2)]
            for a, b in itertools.combinations(specs, 2):
                ops.append(("fused %s%d-%s%d%s" % (
                    a[0], a[1], b[0], b[1], " twisted" if with_d else ""),
                    lambda res, a=a, b=b: qside.bethe_commut_check(rep, a, b)))
        for m in (1, 2):
            for with_d in (False, True):
                tag = "m%d%s" % (m, "-twisted" if with_d else "")
                ops.append(("mcal_" + tag, lambda res, m=m, d=with_d:
                            qside.mcal(rep, m, d)))
                ops.append(("mcal_collapsed_" + tag, lambda res, m=m, d=with_d:
                            qside.mcal_collapsed(rep, m, d)))
                ops.append(("classical_limit_" + tag, lambda res, m=m, d=with_d:
                            qside.classical_limit_compare(rep, m, d)))
        ops.append(("central_term_x8",
                    lambda res: qside.prop_central_term_check(2, 1, 8)))
        return ops

    def checks(self, res):
        out = [("exchange relation", res["exchange"] is True)]
        for name, value in res.items():
            if name.startswith("fused "):
                out.append((name + " commutes", value is True))
            elif name.startswith("mcal_m"):
                other = res["mcal_collapsed_" + name[len("mcal_"):]]
                out.append((name + " equals the collapsed form",
                            (value - other).is_zero()))
            elif name.startswith("classical_limit_"):
                out.append((name + " matches", value["pass"]))
        out.append(("central term closed form", res["central_term_x8"] is True))
        # negative controls
        out.append(("control: untwisted and twisted elements do not commute",
                    twisted_pair_fails(self.rep)))
        out.append(("control: untwisted and twisted products differ", not (
            res["mcal_m2"] - res["mcal_collapsed_m2-twisted"]).is_zero()))
        return out


class VerifyAll:
    """``triggaudin verify --suite all --workers 1`` at the default
    configuration, through the CLI's entry point in a fresh interpreter.

    One worker, not two: on two hardware threads that share a core, two
    pool workers slow each other by up to 1.7x, by an amount that changes
    from run to run, and the drift reference cannot be timed beside them.
    """

    name = "verify-all"

    def __init__(self, seed, outdir):
        self.path = os.path.join(outdir, "verify-%d.json" % os.getpid())
        self.argv = ["verify", "--suite", "all", "--workers", "1",
                     "--out", self.path]
        cfg = cli.resolve_config(cli.build_parser().parse_args(self.argv))
        self.tasks = suites.build_tasks("all", cfg)

    def operations(self):
        return [("verify-all", self._verify)]

    def _verify(self, res):
        code = cli.main(self.argv)
        return code, _read_and_remove(self.path)

    def checks(self, res):
        code, data = res["verify-all"]
        out = checks.report_checks(code, data)
        out.append(("one record per task",
                    len(json.loads(data)["checks"]) == len(self.tasks)))
        with contextlib.redirect_stderr(io.StringIO()):
            refused = cli.main(["verify", "--suite", "quadham",
                                "--points=1,1", "--out", self.path])
        out.append(("control: repeated points are a usage error",
                    refused == 2 and not os.path.exists(self.path)))
        return out


WORKLOADS = {w.name: w for w in (ClassicalFamily, QIdentities, VerifyAll)}
