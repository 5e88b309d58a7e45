#!/usr/bin/env python3
"""Bench regression gate for the BENCH_*.json reports.

Every report has the one shape bench/report.hpp writes: a header
{bench, cpu_model, hardware_concurrency}, five groups at report level, and
`cases`, a list of {id, <the same five groups>}. The group a field sits in
is its gate, applied to the report root and to every case:

  exact   must equal the baseline (proven costs, and counters whose baseline
          is 0: cost_mismatches, audit_failures, unanswered, ...);
  rises   may only rise (solved and proved flags, headline counters);
  falls   may only fall (deterministic expansion counts, epsilon);
  timing  machine-dependent: printed, never gated by `compare`;
  info    descriptive: printed when it changes, never gated by `compare`.

Booleans compare as 0/1 and "num/den" strings as exact fractions. A gated
field or a case of the baseline that is missing from the fresh report
fails, so a new bench is gated by the groups it writes, with no code here.
Two checks are not field rules; they run on the fresh report as hooks:

  certificate  a case with certified=true satisfies
               cost <= (1 + epsilon) * lower_bound in exact rationals, and a
               proved-optimal one has epsilon 0 (anytime, corpus);
  rejection    a case with a `rejected` field has it true: every malformed
               corpus file stays rejected, also one the baseline never saw.

Modes: `compare` applies those rules to a fresh report and its committed
baseline. `overhead` holds reports of one bench from differently
instrumented builds byte-identical in every group but timing, and timing
within a +1-floored ratio; it ignores the header. `scaling` requires, on a
multi-core hda_scaling report, that no r=4 case's `@8t` run is slower than
its `@1t` run x tolerance. `selftest` pushes each gated field of every
committed BENCH_*.json one step the bad way (must fail) and the good way
(must pass) and drops each case (must fail), plus hand-written injections
for the hooks, overhead and scaling.

Exit status: 0 clean, 1 regression, 2 bad invocation/input.
"""

import argparse
import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

GATED = ("exact", "rises", "falls")
GROUPS = GATED + ("timing", "info")
# Fields the certificate hook reads: a good-way step on one alone makes the
# certificate incoherent, so the selftest moves them by hand instead.
CERTIFICATE_FIELDS = ("cost", "lower_bound", "epsilon", "proved_optimal",
                      "certified")


class Gate:
    """The failures and notes of one check."""

    def __init__(self):
        self.failures, self.notes = [], []
        self.fail, self.note = self.failures.append, self.notes.append

    def report(self, what):
        for n in self.notes:
            print(f"note: {n}")
        for f in self.failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print(f"bench_check {what}: " + (f"{len(self.failures)} regression(s)"
                                         if self.failures else "clean"))
        return 1 if self.failures else 0


def cases_by_id(report):
    cases = {case["id"]: case for case in report.get("cases", [])}
    if len(cases) != len(report.get("cases", [])):
        raise ValueError(f"duplicate case ids in {report.get('bench')!r}")
    return cases


def nodes(report):
    """{where: node} for the report root and every case."""
    return {"report": report,
            **{f"case {cid}": c for cid, c in cases_by_id(report).items()}}


def field(node, key):
    """A field from whichever group of `node` holds it, else None."""
    return next((node[g][key] for g in GROUPS if key in node.get(g, {})), None)


def compare_node(where, fresh, base, gate):
    for group in GATED:
        new_group = fresh.get(group, {})
        for key, old in base.get(group, {}).items():
            name = f"{where}: {group}.{key}"
            if key not in new_group:
                gate.fail(f"{name} missing (baseline {old!r})")
                continue
            new = new_group[key]
            if group == "exact":
                if new != old:
                    gate.fail(f"{name} changed {old!r} -> {new!r}")
                continue
            delta = Fraction(new) - Fraction(old)
            if delta < 0 if group == "rises" else delta > 0:
                gate.fail(f"{name} regressed {old!r} -> {new!r} "
                          f"(may only {group[:-1]})")
            elif delta != 0:
                gate.note(f"{name} improved {old!r} -> {new!r} "
                          "(consider refreshing the baseline)")
    for group in ("timing", "info"):
        new_group, old_group = fresh.get(group, {}), base.get(group, {})
        for key in sorted(set(new_group) | set(old_group)):
            old, new = old_group.get(key, "-"), new_group.get(key, "-")
            if group == "timing" or old != new:
                gate.note(f"{where}: {group}.{key} {old} -> {new} (not gated)")


def certificate_hook(report, gate):
    for cid, case in cases_by_id(report).items():
        if field(case, "certified") is not True:
            continue
        values = [field(case, k) for k in ("cost", "lower_bound", "epsilon")]
        if None in values:
            gate.fail(f"case {cid}: certified without cost/lower_bound/eps")
            continue
        cost, lower, eps = (Fraction(v) for v in values)
        if cost > (1 + eps) * lower:
            gate.fail(f"case {cid}: certificate violated: cost {values[0]} > "
                      f"(1+{values[2]})*{values[1]}")
        if field(case, "proved_optimal") is True and eps != 0:
            gate.fail(f"case {cid}: proved optimal with epsilon {values[2]}")


def rejection_hook(report, gate):
    for cid, case in cases_by_id(report).items():
        if field(case, "rejected") is False:
            gate.fail(f"case {cid}: malformed input ACCEPTED by the parser")


def compare(fresh, baseline, gate):
    if fresh.get("bench") != baseline.get("bench"):
        raise ValueError(f"bench kinds differ: fresh={fresh.get('bench')!r} "
                         f"baseline={baseline.get('bench')!r}")
    fresh_nodes, base_nodes = nodes(fresh), nodes(baseline)
    for where, base in base_nodes.items():
        if where not in fresh_nodes:
            gate.fail(f"{where}: missing from the fresh report")
        else:
            compare_node(where, fresh_nodes[where], base, gate)
    for where in fresh_nodes.keys() - base_nodes.keys():
        gate.note(f"{where}: new in the fresh report")
    certificate_hook(fresh, gate)
    rejection_hook(fresh, gate)


def overhead(a, b, tolerance, la, lb, gate):
    """Instrumentation may cost time, never change what a search does."""
    nodes_a, nodes_b = nodes(a), nodes(b)
    for where in sorted(nodes_a.keys() | nodes_b.keys()):
        if where not in nodes_a or where not in nodes_b:
            gate.fail(f"{where}: present in only one report")
            continue
        for group in GROUPS:
            ga, gb = (n[where].get(group, {}) for n in (nodes_a, nodes_b))
            for key in sorted(ga.keys() | gb.keys()):
                name = f"{where}: {group}.{key}"
                x, y = ga.get(key), gb.get(key)
                if key not in ga or key not in gb:
                    gate.fail(f"{name} present in only one report")
                elif group != "timing":
                    if json.dumps(x) != json.dumps(y):
                        gate.fail(f"{name} {la}={x!r} != {lb}={y!r}")
                elif max(x + 1, y + 1) > min(x + 1, y + 1) * tolerance:
                    gate.fail(f"{name} diverged {la}={x} {lb}={y} "
                              f"(x{tolerance:.2f} tolerance)")
                else:
                    gate.note(f"{name} {la}={x} {lb}={y} ok")


def scaling(report, tolerance, gate):
    hw = report.get("hardware_concurrency", 0)
    if hw <= 1:
        gate.note(f"hardware_concurrency={hw}: single-core, nothing to assert")
        return
    cases = cases_by_id(report)
    checked = 0
    for cid, case in cases.items():
        if case.get("info", {}).get("r") != 4:
            continue  # the scaling claim is made on the width-4 workloads
        one, eight = cases.get(f"{cid}@1t"), cases.get(f"{cid}@8t")
        if not (one and eight and field(one, "solved") and
                field(eight, "solved")):
            gate.fail(f"scaling {cid}: missing or unsolved 1t/8t run")
            continue
        checked += 1
        ms1, ms8 = one["timing"]["ms"], eight["timing"]["ms"]
        if ms8 > ms1 * tolerance:
            gate.fail(f"scaling {cid}: 8-thread wall {ms8} ms exceeds 1-thread"
                      f" {ms1} ms (x{tolerance:.2f}) on a {hw}-core runner")
        else:
            gate.note(f"scaling {cid}: 8t {ms8} ms vs 1t {ms1} ms ok")
    if checked == 0:
        gate.fail("scaling: no width-4 (r=4) case found to check")


def step(value, up):
    """`value` moved one step up or down; None when it cannot move."""
    if isinstance(value, bool):
        return None if value == up else up
    if isinstance(value, str):
        return str(Fraction(value) + (1 if up else -1))
    return value + (1 if up else -1)


def changed(value):
    """`value` moved one step, for a field that must not move at all."""
    return step(value, not value if isinstance(value, bool) else True)


def generated_injections(base):
    """(label, mutate, must_fail) from the report's own annotations."""
    def put(where, group, key, value):
        return lambda r: nodes(r)[where][group].update({key: value})

    def drop(where, group, key):
        return lambda r: nodes(r)[where][group].pop(key)

    for where, node in nodes(base).items():
        for group in GATED:
            for key, v in node.get(group, {}).items():
                label, exact = f"{where}: {group}.{key}", group == "exact"
                bad = changed(v) if exact else step(v, group == "falls")
                good = None if exact else step(v, group == "rises")
                yield f"{label} dropped", drop(where, group, key), True
                if bad is not None:
                    yield f"{label} bad", put(where, group, key, bad), True
                if good is not None and key not in CERTIFICATE_FIELDS:
                    yield f"{label} good", put(where, group, key, good), False
    for i, c in enumerate(base.get("cases", [])):
        yield f"case {c['id']} dropped", lambda r, i=i: r["cases"].pop(i), True


def certified_case(report, optimal):
    return next(c for c in report["cases"] if field(c, "certified") is True
                and field(c, "proved_optimal") is optimal
                and Fraction(field(c, "cost")) > 0)


def tighten(report):
    # A smaller epsilon only with a lower bound that rose to match it.
    c = certified_case(report, False)
    eps = Fraction(c["falls"]["epsilon"]) / 2
    c["falls"]["epsilon"] = str(eps)
    c["info"]["lower_bound"] = str(Fraction(field(c, "cost")) / (1 + eps))


def scale(factor, keys=None):
    """Every timing field, or the `keys` in any group, x `factor`."""
    def mutate(report):
        for node in nodes(report).values():
            for group in GROUPS:
                for key, value in node.get(group, {}).items():
                    if (key in keys) if keys else group == "timing":
                        node[group][key] = value * factor
    return mutate


def change_first(group):
    def mutate(report):
        node = next(n for n in nodes(report).values() if n.get(group))
        key, value = next(iter(node[group].items()))
        node[group][key] = changed(value)
    return mutate


def eight_threads(hw, factor):
    """Every 8-thread run at `factor` x its 1-thread time, on `hw` cores."""
    def mutate(report):
        report["hardware_concurrency"] = hw
        cases = cases_by_id(report)
        for cid in (c[:-3] for c in cases if c.endswith("@8t")):
            cases[f"{cid}@8t"]["timing"]["ms"] = \
                cases[f"{cid}@1t"]["timing"]["ms"] * factor
    return mutate


def selftest():
    root = Path(__file__).resolve().parent.parent
    baselines = {p.name: json.loads(p.read_text())
                 for p in sorted(root.glob("BENCH_*.json"))}
    missed = []

    def expect(label, base, mutate, must_fail, check=compare):
        fresh = copy.deepcopy(base)
        mutate(fresh)
        gate = Gate()
        check(fresh, base, gate)
        if bool(gate.failures) != must_fail:
            missed.append((label, must_fail))

    generated = 0
    for name, base in baselines.items():
        expect(f"{name} clean", base, lambda r: None, False)
        for label, mutate, must_fail in generated_injections(base):
            expect(f"{name} {label}", base, mutate, must_fail)
            generated += 1

    # Hooks run against the mutated report itself: no field rule can fire.
    hooks_only = lambda f, b, gate: compare(f, copy.deepcopy(f), gate)
    overhead_1_5 = lambda f, b, gate: overhead(b, f, 1.5, "b", "f", gate)
    scaling_1_0 = lambda f, b, gate: scaling(f, 1.0, gate)

    anytime, corpus, hda = (baselines[f"BENCH_{name}.json"]
                            for name in ("anytime", "corpus", "hda_astar"))
    violate = lambda r: certified_case(r, False)["info"].update(
        lower_bound="0")
    hand = [  # (label, baseline, mutate, must_fail, check)
        ("anytime certificate violated", anytime, violate, True, hooks_only),
        ("anytime optimal with nonzero epsilon", anytime,
         lambda r: certified_case(r, True)["falls"].update(epsilon="1/17"),
         True, hooks_only),
        ("anytime epsilon tightens", anytime, tighten, False, compare),
        ("corpus certificate violated", corpus, violate, True, hooks_only),
        ("corpus unseen malformed file accepted", corpus,
         lambda r: r["cases"].append({"id": "malformed/unseen.txt",
                                      "rises": {"rejected": False}}),
         True, compare),
        ("overhead: timing inside tolerance", hda, scale(1.2), False,
         overhead_1_5),
        ("overhead: timing beyond tolerance", hda, scale(2.0), True,
         overhead_1_5),
        # Speedups are ratios of wall times: they must sit in `timing`.
        ("overhead: speedups are timing", hda,
         scale(1.2, ("speedup_8v1", "best_speedup_8v1")), False, overhead_1_5),
        ("overhead: header ignored", hda,
         lambda r: r.update(bench="x", cpu_model="y", hardware_concurrency=64),
         False, overhead_1_5),
        ("scaling: 8t slower on 4 cores", hda, eight_threads(4, 2.0), True,
         scaling_1_0),
        ("scaling: single-core report", hda, eight_threads(1, 2.0), False,
         scaling_1_0),
    ] + [(f"overhead: {group} changed", hda, change_first(group), True,
          overhead_1_5) for group in ("exact", "rises", "falls", "info")]
    for label, base, mutate, must_fail, check in hand:
        expect(label, base, mutate, must_fail, check)

    for label, must_fail in missed:
        print(f"selftest {label}: " + ("missed" if must_fail else
                                       "false positive"), file=sys.stderr)
    print(f"bench_check selftest: {len(missed)} missed of {generated} "
          f"generated and {len(hand)} hand-written injections and "
          f"{len(baselines)} clean baselines")
    return 1 if missed or not baselines else 0


def load(path):
    return json.loads(Path(path).read_text())


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="fresh report vs baseline")
    p.add_argument("--fresh", required=True)
    p.add_argument("--baseline", required=True)
    p = sub.add_parser("scaling", help="assert hda multi-core scaling")
    p.add_argument("report")
    p.add_argument("--tolerance", type=float, default=1.0)
    p = sub.add_parser("overhead", help="instrumented builds of one bench")
    p.add_argument("--traced", required=True, help="normal build, sink unset")
    p.add_argument("--notrace", required=True, help="-DRBPEB_OBS_NO_TRACE")
    p.add_argument("--progress", help="exact_scaling --progress")
    p.add_argument("--wall-tolerance", type=float, default=1.5)
    sub.add_parser("selftest", help="inject regressions into the baselines")
    args = parser.parse_args()
    gate = Gate()
    try:
        if args.command == "selftest":
            sys.exit(selftest())
        elif args.command == "compare":
            compare(load(args.fresh), load(args.baseline), gate)
        elif args.command == "scaling":
            scaling(load(args.report), args.tolerance, gate)
        else:
            traced = load(args.traced)
            overhead(traced, load(args.notrace), args.wall_tolerance,
                     "traced", "notrace", gate)
            if args.progress:
                overhead(traced, load(args.progress), args.wall_tolerance,
                         "plain", "progress", gate)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(2)
    sys.exit(gate.report(args.command))


if __name__ == "__main__":
    main()
