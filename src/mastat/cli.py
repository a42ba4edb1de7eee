"""Command-line surface.

Subcommands: phi, kprofile, classify, compare, dominance, catalyst,
large-n, aggregate, indiff-pair, time-value, violation-search, cdf-csv,
selftest.

Each subcommand is declared once, in _COMMANDS: its handler and its
options, with the accepted range of those that have one. A handler returns
(payload, exit code), the payload a dict for JSON or a list of lines for
CSV (kprofile, cdf-csv) and text (selftest); run checks the ranges and
writes the payload, to stdout or to the --out file. Exit codes: 0 success
or verified, 1 negative verdict, 2 input error (malformed input, an option
out of range or empty, an unwritable --out), 3 budget exhaustion. All randomized
runs take --seed (default 0); fixed seed means byte-identical output.
"""

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import cgf, dist, dominance, mas, pref
from .errors import BudgetExhausted, InputError, MasError, NoKDominance


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _numbers(raw, what, one=False, text=False):
    """Floats from a JSON list of numbers, or (text=True) from the
    comma-separated text of a command-line option; one=True wants exactly
    one. Anything else (a scalar, string or bool where JSON numbers belong,
    text that is not a number, an integer too large for a double) raises
    an InputError naming `what`, so the command exits 2."""
    items = raw.split(",") if text else raw
    try:
        if not isinstance(items, list) or not (text or all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in items
        )):
            raise TypeError(what)
        values = [float(v) for v in items]
        if one and len(values) != 1:
            raise TypeError(what)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be {'a number' if one else 'a list of numbers'}") from exc
    return values[0] if one else values


def _fields(obj, where, *names):
    """The named fields of a JSON object, in the order named; an InputError
    naming `where` if obj is not an object or lacks one of them."""
    if not isinstance(obj, dict) or any(name not in obj for name in names):
        raise InputError(f"{where}: needs an object with fields {', '.join(names)}")
    return [obj[name] for name in names]


def _columns(rows, where, *names):
    """The named fields of every object in a JSON list, one list per name."""
    if not isinstance(rows, list):
        raise InputError(f"{where} must be a list")
    rows = [_fields(row, f"{where}[{i}]", *names) for i, row in enumerate(rows)]
    return [[row[k] for row in rows] for k in range(len(names))]


def load_dist(path) -> dist.FiniteDist:
    support, probs = _fields(_read_json(path), path, "support", "probs")
    return dist.make(_numbers(support, f"{path}: support"), _numbers(probs, f"{path}: probs"))


def dist_to_dict(d: dist.FiniteDist) -> dict:
    return {"support": list(map(float, d.support)), "probs": list(map(float, d.probs))}


def load_measure(path) -> mas.MixingMeasure:
    (atoms,) = _fields(_read_json(path), path, "atoms")
    locs, wts = _columns(atoms, f"{path}: atoms", "a", "w")
    # an infinite location is written as the string "inf" or "-inf"
    locs = [{"inf": np.inf, "-inf": -np.inf}.get(a, a) if isinstance(a, str) else a for a in locs]
    return mas.make_measure(_numbers(locs, f"{path}: atoms a"), _numbers(wts, f"{path}: atoms w"))


def measure_to_dict(mu: mas.MixingMeasure) -> dict:
    atoms = []
    for a, w in zip(mu.locations, mu.weights):
        loc = "inf" if a == np.inf else "-inf" if a == -np.inf else float(a)
        atoms.append({"a": loc, "w": float(w)})
    return {"atoms": atoms}


def cert_to_dict(cert: dominance.CatalystCertificate) -> dict:
    p = cert.params
    return {
        "order": cert.order,
        "verified": cert.verified,
        "worst_gap": cert.worst_gap,
        "catalyst": dist_to_dict(cert.catalyst),
        "params": {
            "N": p.n_half_range,
            "epsilon": p.epsilon,
            "delta": p.delta,
            "A": p.a_cut,
            "V": p.variance,
            "T": p.truncation,
            "step": p.step,
        },
    }


def _spec_path(path, flag):
    """The path of a spec such as mas:PATH; empty, an error naming flag."""
    if not path:
        raise InputError(f"{flag}: empty path")
    return path


def _utility_from_spec(spec: str, flag: str) -> pref.UtilitySpec:
    if spec == "identity":
        return pref.UtilitySpec.identity()
    if spec == "log":
        return pref.UtilitySpec.log()
    if spec.startswith("power:"):
        return pref.UtilitySpec.power(_numbers(spec[6:], "power exponent", one=True, text=True))
    if spec.startswith("table:"):
        path = _spec_path(spec[6:], flag)
        (points,) = _fields(_read_json(path), path, "points")
        xs, us = _columns(points, f"{path}: points", "x", "u")
        xs, us = _numbers(xs, f"{path}: points x"), _numbers(us, f"{path}: points u")
        return pref.UtilitySpec.table(list(zip(xs, us)))
    raise InputError(f"unknown utility spec {spec!r}")


def _pref_from_spec(spec: str, flag: str):
    if spec == "mean":
        return mas.statistic_mean
    if spec == "median":
        return pref.median
    if spec.startswith("mean-variance:"):
        k = _numbers(spec[14:], "mean-variance k", one=True, text=True)
        return pref.preference_mean_variance(k)
    if spec.startswith("mas:"):
        return pref.preference_mas(load_measure(_spec_path(spec[4:], flag)))
    raise InputError(f"unknown preference spec {spec!r}")


def _cmd_phi(args):
    return {"value": mas.evaluate(load_measure(args.measure), load_dist(args.dist))}, 0


def _cmd_kprofile(args):
    prof = cgf.k_profile(load_dist(args.dist), args.n_grid)
    lines = ["a,K"]
    for a, v in zip(prof.grid, prof.values):
        label = "+inf" if a == np.inf else "-inf" if a == -np.inf else repr(float(a))
        lines.append(f"{label},{float(v)!r}")
    return lines, 0


def _cmd_classify(args):
    mu = load_measure(args.measure)
    if args.kind == "risk":
        return {"risk": mas.classify_risk(mu).value}, 0
    cls = pref.classify_betweenness(mu)
    return {
        "betweenness": cls.kind.value,
        "satisfies": cls.satisfies,
        "a": cls.a,
        "beta": cls.beta,
        "reason": cls.reason,
    }, 0 if cls.satisfies else 1


def _cmd_compare(args):
    res = mas.compare(load_measure(args.measure1), load_measure(args.measure2))
    incomparable = res.order is mas.CompareOrder.INCOMPARABLE
    return {"order": res.order.value, "witness": res.witness}, 1 if incomparable else 0


def _cmd_dominance(args):
    test = dominance.fosd if args.order == 1 else dominance.sosd
    res = test(load_dist(args.dist1), load_dist(args.dist2), tol=args.tol)
    return {"order": args.order, **dataclasses.asdict(res)}, 0 if res.dominates else 1


def _cmd_catalyst(args):
    find = dominance.find_catalyst_first if args.order == 1 else dominance.find_catalyst_second
    cert = find(load_dist(args.dist1), load_dist(args.dist2), margin=args.margin)
    return cert_to_dict(cert), 0  # every failure raises


def _cmd_large_n(args):
    n = dominance.large_numbers_n(load_dist(args.dist1), load_dist(args.dist2), args.n_max)
    return {"n": n}, 0 if n is not None else 1


def _cmd_aggregate(args):
    where = args.profile
    rates, weights = _fields(_read_json(where), where, "rates", "weights")
    rates, weights = _numbers(rates, f"{where}: rates"), _numbers(weights, f"{where}: weights")
    profile = pref.AgentProfile(tuple(rates), pref.UtilitySpec.identity())
    social = pref.aggregate(profile, weights)
    return {
        "weights": list(social.weights),
        "rate": social.rate,
        "statistic": measure_to_dict(social.statistic),
    }, 0


def _cmd_indiff_pair(args):
    rates = _numbers(args.rates, "--rates", text=True)
    pair = pref.indifference_pair(rates, args.c)
    return {
        "T": dist_to_dict(pair.t_dist),
        "S": dist_to_dict(pair.s_dist),
        "c": pair.c,
        "eta": pair.eta,
        "d": list(pair.d_coeffs),
    }, 0


def _cmd_time_value(args):
    t_dist = load_dist(args.dist)
    mu = load_measure(args.measure)
    u = _utility_from_spec(args.utility, "--utility")
    return {"value": pref.time_value(args.x, t_dist, u, args.rate, mu)}, 0


def _cmd_violation_search(args):
    p1 = _pref_from_spec(args.pref1, "--pref1")
    p2 = _pref_from_spec(args.pref2, "--pref2")
    values = tuple(_numbers(args.values, "--values", text=True))
    grid = pref.GambleGrid(values, args.prob_step, args.max_points)
    quad = pref.find_framing_violation(p1, p2, grid, max_candidates=args.budget)
    if quad is None:
        return {"found": False}, 1
    names = ("X", "X_rejected", "Y", "Y_rejected")
    return {"found": True, **{k: dist_to_dict(d) for k, d in zip(names, quad)}}, 0


def _cmd_cdf_csv(args):
    d1 = load_dist(args.dist1)
    d2 = load_dist(args.dist2)
    if args.add is not None:
        z = load_dist(args.add)
        d1 = dist.convolve(d1, z)
        d2 = dist.convolve(d2, z)
    pts = dist.merged_support(d1, d2)
    f = dist.cdf(d1, pts)
    g = dist.cdf(d2, pts)
    lines = ["x,F,G"]
    lines.extend(
        f"{float(x)!r},{float(a)!r},{float(b)!r}" for x, a, b in zip(pts, f, g)
    )
    return lines, 0


def _selftest_checks(seed):
    rng = np.random.default_rng(seed)

    def fig1_pair():
        x = dist.make([0.0, 1.0], [2 / 3, 1 / 3])
        y = dist.discretize_uniform(-0.6, 0.4, 1e-3)
        return x, y

    def c_not_ranked():
        x, y = fig1_pair()
        assert not dominance.fosd(x, y).dominates
        assert not dominance.fosd(y, x).dominates

    def c_two_point_catalyst():
        x, y = fig1_pair()
        z = dist.make([-0.2, 0.2], [0.5, 0.5])
        res = dominance.fosd(dist.convolve(x, z), dist.convolve(y, z), tol=5e-3)
        assert res.dominates

    def c_constructed_catalyst():
        x, y = fig1_pair()
        cert = dominance.find_catalyst_first(x, y)
        assert cert.verified and cert.worst_gap >= -1e-12

    def c_additivity():
        # laws of 2-5 atoms on [-2, 2], kept apart, and measures of 1-3
        # atoms on [-3, 3], all with Dirichlet(1) masses: the rng calls, in
        # order, of the test suite's random_dist and random_measure
        for _ in range(50):
            laws = []
            for _ in range(2):
                n = int(rng.integers(2, 6))
                support = np.sort(rng.uniform(-2.0, 2.0, n)) + np.arange(n) * 1e-6
                laws.append(dist.make(support, rng.dirichlet(np.ones(n))))
            d1, d2 = laws
            n = int(rng.integers(1, 4))
            mu = mas.make_measure(rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n)))
            lhs = mas.evaluate(mu, dist.convolve(d1, d2))
            rhs = mas.evaluate(mu, d1) + mas.evaluate(mu, d2)
            assert abs(lhs - rhs) <= 1e-9

    def c_compare_example():
        mu1 = mas.point_mass(2.0)
        mu2 = mas.make_measure([1.0, 3.0], [0.25, 0.75])
        assert mas.compare(mu1, mu2).order is mas.CompareOrder.LE

    def c_aggregate():
        profile = pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())
        social = pref.aggregate(profile, [0.5, 0.5])
        assert social.rate == 1.5

    def c_indiff():
        pair = pref.indifference_pair([0.5, 1.0, 2.0], 0.99)
        for r in (0.5, 1.0, 2.0):
            ratio = pref.discount_factor(pair.t_dist, r) / pref.discount_factor(
                pair.s_dist, r
            )
            assert abs(ratio - 0.99) <= 1e-10

    return [
        ("cdfs-not-ranked", c_not_ranked),
        ("two-point-catalyst", c_two_point_catalyst),
        ("constructed-catalyst", c_constructed_catalyst),
        ("additivity", c_additivity),
        ("comparative-risk", c_compare_example),
        ("aggregation-rate", c_aggregate),
        ("indifference-pair", c_indiff),
    ]


def _cmd_selftest(args):
    failures = 0
    lines = []
    for name, fn in _selftest_checks(args.seed):
        try:
            fn()
            lines.append(f"ok   {name}")
        except AssertionError:
            failures += 1
            lines.append(f"FAIL {name}")
    lines.append(f"{'FAIL' if failures else 'ok'}: {len(lines) - failures}"
                 f"/{len(lines)} checks passed")
    return lines, 1 if failures else 0


#: every subcommand: its handler, then its options as (flag, argparse
#: keywords[, accepted range]); each subcommand also takes --out
_COMMANDS = {
    "phi": (_cmd_phi, [
        ("--measure", {"required": True}),
        ("--dist", {"required": True}),
    ]),
    "kprofile": (_cmd_kprofile, [
        ("--dist", {"required": True}),
        ("--n-grid", {"type": int, "default": 201}, lambda v: v >= 3),
    ]),
    "classify": (_cmd_classify, [
        ("--measure", {"required": True}),
        ("--kind", {"choices": ("risk", "betweenness"), "default": "risk"}),
    ]),
    "compare": (_cmd_compare, [
        ("measure1", {}),
        ("measure2", {}),
    ]),
    "dominance": (_cmd_dominance, [
        ("dist1", {}),
        ("dist2", {}),
        ("--order", {"type": int, "choices": (1, 2), "default": 1}),
        ("--tol", {"type": float, "default": 1e-12}, lambda v: v >= 0),
    ]),
    "catalyst": (_cmd_catalyst, [
        ("dist1", {}),
        ("dist2", {}),
        ("--order", {"type": int, "choices": (1, 2), "default": 1}),
        ("--margin", {"type": float, "default": 1e-6}, lambda v: v >= 0),
    ]),
    "large-n": (_cmd_large_n, [
        ("dist1", {}),
        ("dist2", {}),
        ("--n-max", {"type": int, "default": 32}, lambda v: v >= 1),
    ]),
    "aggregate": (_cmd_aggregate, [("profile", {})]),
    "indiff-pair": (_cmd_indiff_pair, [
        ("--rates", {"required": True}),
        ("--c", {"type": float, "required": True}),
    ]),
    "time-value": (_cmd_time_value, [
        ("--x", {"type": float, "required": True}),
        ("--dist", {"required": True}),
        ("--utility", {"default": "identity"}),
        ("--rate", {"type": float, "required": True}),
        ("--measure", {"required": True}),
    ]),
    "violation-search": (_cmd_violation_search, [
        ("--pref1", {"required": True}),
        ("--pref2", {"required": True}),
        ("--values", {"default": "-2,-1,0,1"}),
        ("--prob-step", {"type": float, "default": 0.25}, lambda v: 0 < v <= 1),
        ("--max-points", {"type": int, "default": 2}, lambda v: v >= 1),
        ("--budget", {"type": int, "default": 10**5}, lambda v: v >= 1),
    ]),
    "cdf-csv": (_cmd_cdf_csv, [
        ("dist1", {}),
        ("dist2", {}),
        ("--add", {}),
    ]),
    "selftest": (_cmd_selftest, [("--seed", {"type": int, "default": 0}, lambda v: v >= 0)]),
}

#: the options that name a file to read; left empty, each is an input
#: error that names the option (an empty --out fails when it is written)
_PATHS = {"--measure", "--dist", "measure1", "measure2", "dist1", "dist2", "profile", "--add"}


@functools.cache  # built once per process; every run reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mastat",
        description="Monotone additive statistics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out")
        for flag, keywords, *_ in options:
            p.add_argument(flag, **keywords)
    return parser


def run(argv) -> int:
    """Run one subcommand: check its options' ranges and that no path is
    empty, call its handler and write the payload (a dict as JSON, a list of
    lines as text) to stdout or to --out. Returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, options = _COMMANDS[args.command]
    try:
        for flag, _, *in_range in options:
            value = getattr(args, flag.lstrip("-").replace("-", "_"))
            if value == "" and flag in _PATHS:
                raise InputError(f"{flag}: empty path")
            if in_range and not in_range[0](value):
                raise InputError(f"{flag} out of range: {value}")
        payload, code = handler(args)
        lines = [json.dumps(payload, indent=2)] if isinstance(payload, dict) else payload
        text = "\n".join(lines) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"{args.out}: {exc}" if args.out else "--out: empty path") from exc
        return code
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoKDominance as exc:
        print(f"error: {exc} (witness a = {exc.witness})", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
