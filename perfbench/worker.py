"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE TRACE_FILE

run.py starts it with PYTHONPATH pointing at the checkout's src/.  The
worker makes the pass's inputs from the seed, times each op in a closed
loop (one client, one thread), then checks every result and prints one
JSON object on stdout.  With TRACE 1 the op loop runs under the tracer
and the per-layer totals go into the result and into TRACE_FILE.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedMeter, clock

ROOT = Path(__file__).resolve().parent.parent


class Pass:
    """Times the ops of one pass and counts what failed or was wrong."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.meter = SpeedMeter(tracer.exclude if tracer else None)
        self.op_bounds = []      # (start, end) of each op, clock() time
        self.failed = {}         # kind of failure: count
        self.wrong = 0
        self.problems = []
        self.digest = hashlib.sha256()

    @contextlib.contextmanager
    def loop(self):
        """The timed op loop: traced if asked, with the machine's speed
        sampled throughout, followed by the figures taken before any check
        runs.  Every time is given raw and scaled to the reference speed
        (see speed.py), both without the probes' own time."""
        if self.tracer:
            self.tracer.install()
        self.meter.start()
        t0 = clock()
        try:
            yield
        finally:
            end = clock()
            self.meter.stop()
            if self.tracer:
                self.tracer.uninstall()
            self.raw_wall_s, self.wall_s = self.meter.measure(t0, end)
            ops = [self.meter.measure(*bounds) for bounds in self.op_bounds]
            self.raw_op_s = [raw for raw, _ in ops]
            self.op_s = [scaled for _, scaled in ops]
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.peak_rss_mb = peak_kib / 1024.0
            self.memo_entries = memo_entries()

    def time_op(self, fn):
        """Run fn() as one op; return (ok, result or the error text)."""
        tracer = self.tracer
        if tracer:
            tracer.begin_op()
        t0 = clock()
        try:
            out, ok = fn(), True
        except Exception:   # a failing op is counted, not fatal to the pass
            out, ok = traceback.format_exc(limit=3), False
        self.op_bounds.append((t0, clock()))
        if tracer:
            tracer.end_op(len(self.op_bounds) - 1)
        return ok, out

    def record(self, label, text):
        self.digest.update(f"{label}\0{text}\n".encode())

    def fail(self, kind, label, why):
        self.failed[kind] = self.failed.get(kind, 0) + 1
        self._note(label, why)

    def mismatch(self, label, why):
        self.wrong += 1
        self._note(label, why)

    def _note(self, label, why):
        if len(self.problems) < 20:
            self.problems.append(" ".join(f"{label}: {why}".split())[:300])


# --------------------------------------------------------------------------
# interactive
# --------------------------------------------------------------------------

def _counit_of_tree(node):
    """epsilon by the homomorphism property, straight from the tree:
    a, d, s go to 1 and b, c, zeta to 0.  Independent of the rewriter."""
    from superq.scalars import Scalar
    kind = node[0]
    if kind == "gen":
        return Scalar.from_rational(0 if node[1] in "bc" else 1)
    if kind == "zeta":
        return Scalar.from_rational(0)
    if kind == "i":
        return Scalar.from_gauss(0, 1)
    if kind == "t":
        return Scalar.t_power(node[1])
    if kind == "num":
        return Scalar.from_rational(node[1])
    if kind == "add":
        out = Scalar.from_rational(0)
        for sign, term in node[1]:
            value = _counit_of_tree(term)
            out = out - value if sign == "-" else out + value
        return out
    if kind == "mul":
        out = Scalar.from_rational(1)
        for factor in node[1]:
            out = out * _counit_of_tree(factor)
        return out
    if kind == "pow":
        return _counit_of_tree(node[1]) ** node[2]
    if kind == "neg":
        return -_counit_of_tree(node[1])
    raise ValueError(f"unknown node {node!r}")


def _check_interactive(op, out):
    """(kind, reason) for the first check the output fails, or None.

    kind "wrong" is a value that breaks an identity; "unreadable" is
    printed text that the parser reads back as another value.  Outputs
    that do not parse back at all (rational-function coefficients) get
    only the value checks."""
    from superq import hopf
    from superq.parser import ExprError, eval_text
    cmd, text, tree = op["argv"][0], op["argv"][-1], op["tree"]
    if cmd == "eps":
        want = str(_counit_of_tree(tree))
        return None if out == want else ("wrong", f"counit {out!r}, by the tree {want!r}")
    if cmd not in ("nf", "star", "antipode"):
        return None
    x = eval_text(text)
    if hopf.counit(x) != _counit_of_tree(tree):
        return "wrong", "the counit of the normal form differs from the tree's"
    value = x
    if cmd == "star":
        value = hopf.star(x)
        if hopf.star(value) != x:
            return "wrong", "star(star(x)) != x"
    elif cmd == "antipode":
        value = hopf.antipode(x)
        if hopf.counit(value) != hopf.counit(x):
            return "wrong", "eps(S(x)) != eps(x)"
    if str(value) != out:
        return "wrong", "the output is not the library's value"
    try:
        back = eval_text(out)
    except ExprError:
        return None
    if back != value:
        return "unreadable", f"the output reads back as {back}"
    return None


def run_interactive(seed, run):
    from superq import cli
    ops = workloads.interactive_ops(seed)
    outputs = []
    with run.loop():
        for op in ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                ok, rc = run.time_op(lambda: cli.main(op["argv"]))
            outputs.append((ok, rc, stdout.getvalue(), stderr.getvalue()))
    for op, (ok, rc, out, err) in zip(ops, outputs):
        label = " ".join(op["argv"])
        run.record(label, f"{rc}\0{out}")
        if not ok:
            run.fail("exception", label, rc)
        elif rc != 0:
            run.fail(f"exit {rc}", label, err.strip())
        else:
            problem = _check_interactive(op, out.strip())
            if problem and problem[0] == "unreadable":
                run.fail("output reads back as another value", label, problem[1])
            elif problem:
                run.mismatch(label, problem[1])
    return {}


# --------------------------------------------------------------------------
# verify_all
# --------------------------------------------------------------------------

# Associativity triples of the rewrite suite per pass.  They are most of the
# pass's ops, so their number sets how steady op_p50_ms is from one seed to
# the next: with 300 its median moved by 7% between seeds.
ASSOC_TRIPLES = 900


def _verify_ops(seed):
    """(suite, label, fn) for the twelve suites of `superq verify --suite
    all`, composed from the library calls the CLI makes, at the CLI's
    default degrees, in the CLI's order, with the rewrite suite's
    associativity triples spread between them.  The seed goes to every
    call that takes rng_seed and draws the triples."""
    from superq import dual, hopf, qfun, repn, spheres
    from superq.algebra import Element, random_monomial
    from superq.report import Report

    def assoc(monos):
        xs = [Element.monomial(m) for m in monos]
        lhs = (xs[0] * xs[1]) * xs[2]
        rhs = xs[0] * (xs[1] * xs[2])
        rep = Report()
        rep.check("associativity", lhs == rhs, lhs, rhs)
        return rep, lambda: str(lhs)

    def matcoef(two_l, s):
        rep = Report()
        mat = repn.matrix_coefficients(two_l, s)
        cf = repn.closed_form_matrix(two_l, s)
        for key in mat.entries:
            rep.check(f"closed form twoL={two_l} s={s} {key}",
                      mat.entries[key] == cf.entries[key],
                      mat.entries[key], cf.entries[key])
        return rep

    def characters():
        chars = spheres.characters_of_S_infinity()
        rep = Report()
        rep.check("characters of the infinity sphere", len(chars) == 2, len(chars), 2)
        return rep, lambda: str([[str(c) for c in ch] for ch in chars])

    rng = random.Random(seed)
    triples = [[random_monomial(rng, 4) for _ in range(3)] for _ in range(ASSOC_TRIPLES)]
    rewrite = [("rewrite", f"associativity {k}", lambda m=m: assoc(m))
               for k, m in enumerate(triples)]
    calls = [
        ("hopf", "verify_hopf(4)", lambda: hopf.verify_hopf(4, rng_seed=seed)),
        ("coaction", "verify_coaction(5)", lambda: hopf.verify_coaction(5)),
        ("coaction", "verify_coaction_morphism(3)", lambda: hopf.verify_coaction_morphism(3)),
        ("qfun", "pascal_rule_check(8)", lambda: qfun.pascal_rule_check(8)),
        ("qfun", "qbinomial_theorem_check(6)", lambda: qfun.qbinomial_theorem_check(6)),
        ("qfun", "binomial_collapse_check(6)", lambda: qfun.binomial_collapse_check(6)),
        ("dual", "verify_uq_relations(4)", lambda: dual.verify_uq_relations(4)),
        ("dual", "verify_dual_hopf()", lambda: dual.verify_dual_hopf(rng_seed=seed)),
        ("pairing", "pairing_gram_rank(2, 4)", lambda: dual.pairing_gram_rank(2, 4)),
    ]
    calls += [("matcoef", f"matcoef twoL={two_l} s={s}", lambda a=two_l, b=s: matcoef(a, b))
              for two_l in range(5) for s in (0, 1)]
    calls += [
        ("integral", "verify_integral(4)", lambda: repn.verify_integral(4)),
        ("moments", "moments_report()", lambda: repn.moments_report()),
        ("peterweyl", "verify_peter_weyl(2)", lambda: repn.verify_peter_weyl(2)),
        ("peterweyl", "verify_weight_norms(3)", lambda: repn.verify_weight_norms(3)),
        ("spheres", "verify_M()", lambda: spheres.verify_M()),
        ("spheres", "verify_infinity_relations()", lambda: spheres.verify_infinity_relations()),
        ("spheres", "verify_coideal(INFINITY)", lambda: spheres.verify_coideal(spheres.INFINITY)),
        ("spheres", "sphere_basis_check(INFINITY, 2)",
         lambda: spheres.sphere_basis_check(spheres.INFINITY, 2)),
        ("spheres", "characters_of_S_infinity()", characters),
        ("completeness", "completeness_witness(3, 3)", lambda: repn.completeness_witness(3, 3)),
    ]
    # The triples are spread evenly between the library calls.  Run back to
    # back they would all fall into one second of the pass, and their median
    # would follow the machine's speed in that second.
    step = -(-len(rewrite) // (len(calls) + 1))
    ops = []
    for k in range(len(calls) + 1):
        ops += rewrite[k * step:(k + 1) * step] + calls[k:k + 1]
    return ops


def run_verify_all(seed, run, expected_checks):
    ops = _verify_ops(seed)
    with run.loop():
        results = [run.time_op(fn) for _suite, _label, fn in ops]
    suite_s = {}
    checks = {}
    for (suite, label, _fn), (ok, out), dt in zip(ops, results, run.op_s):
        suite_s[suite] = suite_s.get(suite, 0.0) + dt
        if not ok:
            run.fail("exception", label, out)
            continue
        rep, text = out if isinstance(out, tuple) else (out, str)
        run.record(label, f"{rep}\0{text()}")
        checks[suite] = checks.get(suite, 0) + rep.checked
        if not rep.ok:
            run.mismatch(label, str(rep))
    for suite, want in expected_checks.items():
        if checks.get(suite) != want:
            run.mismatch(suite, f"{checks.get(suite)} checks, expected {want}")
    return {"suite_s": suite_s}


# --------------------------------------------------------------------------
# haar_solve
# --------------------------------------------------------------------------

def run_haar_solve(seed, run):
    from superq import hopf, repn
    from superq.parser import eval_text
    ops = workloads.haar_solve_ops(seed)
    inputs = []
    for op in ops:
        if op[0] == "zeta":
            inputs.append(eval_text(op[1]))
        else:
            inputs.append(repn.closed_form(*op[1]) * hopf.star(repn.closed_form(*op[2])))
    with run.loop():
        results = [run.time_op(lambda x=x: (repn.haar(x), repn.haar_via_corep_expansion(x)))
                   for x in inputs]
    for op, (ok, out) in zip(ops, results):
        label = repr(op)
        if not ok:
            run.fail("exception", label, out)
            continue
        direct, via_corep = out
        run.record(label, str(direct))
        if direct != via_corep:
            run.mismatch(label, f"haar {direct} != corep route {via_corep}")
    return {}


# --------------------------------------------------------------------------

def memo_entries():
    """Entries in every module-level table of superq named *_cache."""
    total = 0
    for name, mod in list(sys.modules.items()):
        if name != "superq" and not name.startswith("superq."):
            continue
        for attr, value in vars(mod).items():
            if attr.endswith("_cache") and hasattr(value, "__len__"):
                total += len(value)
    return total


def main(argv):
    workload, seed, trace, trace_file = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    import superq
    import superq.cli  # noqa: F401  (the CLI layer is traced as well)
    src = (ROOT / "src").resolve()
    if src not in Path(superq.__file__).resolve().parents:
        sys.exit(f"superq was imported from {superq.__file__}, not from {src}")
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    run = Pass(tracer)
    if workload == "interactive":
        extra = run_interactive(seed, run)
    elif workload == "verify_all":
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        extra = run_verify_all(seed, run, expected["verify_checks"])
    elif workload == "haar_solve":
        extra = run_haar_solve(seed, run)
    else:
        sys.exit(f"unknown workload {workload!r}")
    result = {
        "wall_s": run.wall_s, "op_s": run.op_s, "raw_wall_s": run.raw_wall_s,
        "raw_op_s": run.raw_op_s, "failed": run.failed,
        "wrong": run.wrong, "problems": run.problems,
        "digest": run.digest.hexdigest(), "peak_rss_mb": run.peak_rss_mb,
        "memo_entries": run.memo_entries, "probe_s": run.meter.took, **extra,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
        Path(trace_file).write_text(json.dumps({
            "workload": workload, "seed": seed, "functions": tracer.functions(),
            "op_spans": tracer.op_spans}))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
