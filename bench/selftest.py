"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs the program on small inputs of each workload, confirms that every
check accepts the genuine output, then corrupts the output in one way at a
time and confirms that the check rejects it: a sign-flipped H_eff, a
reported distance that is off, an order off by one, a wrong cascade level
or permutation, a charge that is off, a point that moved, a point that is
missing or extra. Exits non-zero if any check accepts a corrupted output.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys

import numpy as np

import run


def main():
    run.use_checkout()
    run.import_program()
    import checks
    import workloads

    failures = []

    def expect(accepts, what, check):
        try:
            check()
        except checks.CheckFailed as exc:
            ok, detail = not accepts, str(exc)
        else:
            ok, detail = accepts, "accepted"
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict} {'accepts' if accepts else 'rejects'} {what}: "
              f"{detail}")
        if not ok:
            failures.append(what)

    def json_variant(out, edit):
        doc = json.loads(out[1])
        edit(doc)
        return out[0], json.dumps(doc)

    workdir = run.BENCH_DIR / "work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # dense
        dec_json, dec_text, dist = workloads.dense_round(
            0, workdir, configs=((16, 2, "middle"),))
        out = dec_json.call()
        expect(True, "decompose --json", lambda: dec_json.check(out))

        def flip_heff(doc):
            doc["outputs"]["H_eff"] = [[[-re, -im] for re, im in row]
                                       for row in doc["outputs"]["H_eff"]]

        expect(False, "decompose --json with H_eff sign-flipped",
               lambda: dec_json.check(json_variant(out, flip_heff)))
        expect(False, "decompose --json with S transposed",
               lambda: dec_json.check(json_variant(out, lambda d: d[
                   "outputs"].update(S=[list(c) for c in zip(
                       *d["outputs"]["S"])]))))
        expect(False, "decompose with a non-zero exit code",
               lambda: dec_json.check((3, out[1])))

        out = dec_text.call()
        expect(True, "decompose text", lambda: dec_text.check(out))
        parts = checks.decomposition_from_text(
            checks.parse_text_report(*out))
        # The same draws as dense_round made for this config.
        inputs = workloads._dense_inputs(np.random.default_rng([0, 1]),
                                         16, 2, 7)
        expect(False, "decompose text with H_eff sign-flipped",
               lambda: checks.check_decomposition(
                   dict(parts, H_eff=-parts["H_eff"]), inputs["hd"],
                   inputs["d"], inputs["pd"], 2, 7))
        expect(False, "decompose text with within_r0 false",
               lambda: checks.check_decomposition(
                   dict(parts, within_r0=False), inputs["hd"], inputs["d"],
                   inputs["pd"], 2, 7))

        out = dist.call()
        expect(True, "distance --json", lambda: dist.check(out))
        expect(False, "distance --json with the distance off by 1e-6",
               lambda: dist.check(json_variant(out, lambda d: d["outputs"]
                                               .update(distance=d["outputs"]
                                                       ["distance"] + 1e-6))))

        # families
        order_op, cascade_op, faulty_cascade, _, heff_op = (
            workloads.families_round(0, workdir,
                                     families=workloads.ORDER_FAMILIES[:1]))
        out = order_op.call()
        expect(True, "order ising(3)", lambda: order_op.check(out))
        expect(False, "order ising(3) reporting order 4",
               lambda: order_op.check(json_variant(
                   out, lambda d: d["outputs"].update(order=4))))
        expect(False, "order ising(3) reporting order 2",
               lambda: order_op.check(json_variant(
                   out, lambda d: d["outputs"].update(order=2))))
        expect(False, "order ising(3) with the methods disagreeing",
               lambda: order_op.check(json_variant(
                   out, lambda d: d["outputs"].update(agreement=False))))

        result = cascade_op.call()
        expect(True, "cascade ising(3)", lambda: cascade_op.check(result))
        expect(False, "cascade ising(3) with pair level 4",
               lambda: cascade_op.check(dataclasses.replace(
                   result, pair_levels={(1, 2): 4})))
        expect(False, "cascade ising(3) with permutation (1, 2)",
               lambda: cascade_op.check(dataclasses.replace(
                   result, negative_permutation=(1, 2))))
        expect(False, "cascade ising(5), the known fault",
               lambda: faulty_cascade.check(faulty_cascade.call()))

        estimate = heff_op.call()
        expect(True, "heff order ising(3)", lambda: heff_op.check(estimate))
        expect(False, "heff order ising(3) off by one",
               lambda: heff_op.check(dataclasses.replace(
                   estimate, r=estimate.r + 1)))

        # weyl
        scans = workloads.weyl_round(0, workdir, builtin=((11, 1),),
                                     plugin_res=21)
        builtin, both, empty = scans
        for op in scans:
            out = op.call()
            expect(True, f"{op.kind} {op.label}", lambda: op.check(out))
            if op is empty:
                expect(False, "empty box reporting the built-in's point",
                       lambda: op.check(json_variant(out, lambda d: d[
                           "outputs"].update(count=1, points=json.loads(
                               builtin_out[1])["outputs"]["points"]))))
                continue
            if op is builtin:
                builtin_out = out
            points = json.loads(out[1])["outputs"]["points"]

            def charge_off(doc):
                doc["outputs"]["points"][-1]["charge"] *= -1

            def moved(doc):
                p = doc["outputs"]["points"][0]["p"]
                p[0] = repr(float(p[0]) + 1e-3)

            def extra(doc):
                doc["outputs"]["points"].append(copy.deepcopy(points[0]))
                doc["outputs"]["count"] += 1

            def missing(doc):
                doc["outputs"]["points"].pop()
                doc["outputs"]["count"] -= 1

            for what, edit in (("a charge flipped", charge_off),
                               ("a point moved by 1e-3", moved),
                               ("an extra point", extra),
                               ("a point missing", missing)):
                expect(False, f"{op.kind} with {what}",
                       lambda: op.check(json_variant(out, edit)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"{len(failures)} check(s) misjudged: {failures}")
        return 1
    print("every check accepts the genuine outputs and rejects the "
          "corrupted ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
