"""Command-line surface.

Subcommands: phi, kprofile, classify, compare, dominance, catalyst,
large-n, aggregate, indiff-pair, time-value, violation-search, cdf-csv,
selftest.

Results go to stdout as JSON (or CSV for kprofile / cdf-csv), or to the
--out file. Exit codes: 0 success or verified, 1 negative verdict, 2 input
error, 3 budget exhaustion. All randomized runs take --seed (default 0);
fixed seed means byte-identical output.
"""

import argparse
import dataclasses
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


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path):
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _utility_from_spec(spec: str) -> pref.UtilitySpec:
    if spec == "identity":
        return pref.UtilitySpec.identity()
    if spec == "log":
        return pref.UtilitySpec.log()
    if spec.startswith("power:"):
        return pref.UtilitySpec.power(_numbers(spec[6:], "power exponent", one=True, text=True))
    if spec.startswith("table:"):
        path = spec[6:]
        (points,) = _fields(_read_json(path), path, "points")
        xs, us = _columns(points, f"{path}: points", "x", "u")
        xs, us = _numbers(xs, f"{path}: points x"), _numbers(us, f"{path}: points u")
        return pref.UtilitySpec.table(list(zip(xs, us)))
    raise InputError(f"unknown utility spec {spec!r}")


def _pref_from_spec(spec: str):
    if spec == "mean":
        return pref.preference_mean
    if spec == "median":
        return pref.median
    if spec.startswith("mean-variance:"):
        k = _numbers(spec[14:], "mean-variance k", one=True, text=True)
        return pref.preference_mean_variance(k)
    if spec.startswith("mas:"):
        return pref.preference_mas(load_measure(spec.split(":", 1)[1]))
    raise InputError(f"unknown preference spec {spec!r}")


def _cmd_phi(args):
    mu = load_measure(args.measure)
    d = load_dist(args.dist)
    _emit_json({"value": mas.evaluate(mu, d)}, args.out)
    return 0


def _cmd_kprofile(args):
    d = load_dist(args.dist)
    prof = cgf.k_profile(d, args.n_grid)
    lines = ["a,K"]
    for a, v in zip(prof.grid, prof.values):
        label = "+inf" if a == np.inf else "-inf" if a == -np.inf else repr(float(a))
        lines.append(f"{label},{float(v)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_classify(args):
    mu = load_measure(args.measure)
    if args.kind == "risk":
        _emit_json({"risk": mas.classify_risk(mu).value}, args.out)
        return 0
    cls = pref.classify_betweenness(mu)
    obj = {
        "betweenness": cls.kind.value,
        "satisfies": cls.satisfies,
        "a": cls.a,
        "beta": cls.beta,
        "reason": cls.reason,
    }
    _emit_json(obj, args.out)
    return 0 if cls.satisfies else 1


def _cmd_compare(args):
    mu1 = load_measure(args.measure1)
    mu2 = load_measure(args.measure2)
    grid = _numbers(args.b_grid, "--b-grid", text=True) if args.b_grid else None
    res = mas.compare(mu1, mu2, grid)
    _emit_json({"order": res.order.value, "witness": res.witness}, args.out)
    return 0 if res.order is not mas.CompareOrder.INCOMPARABLE else 1


def _cmd_dominance(args):
    d1 = load_dist(args.dist1)
    d2 = load_dist(args.dist2)
    test = dominance.fosd if args.order == 1 else dominance.sosd
    res = test(d1, d2, tol=args.tol)
    _emit_json({"order": args.order, **dataclasses.asdict(res)}, args.out)
    return 0 if res.dominates else 1


def _cmd_catalyst(args):
    d1 = load_dist(args.dist1)
    d2 = load_dist(args.dist2)
    find = (
        dominance.find_catalyst_first
        if args.order == 1
        else dominance.find_catalyst_second
    )
    cert = find(d1, d2, margin=args.margin)
    _emit_json(cert_to_dict(cert), args.out)
    return 0 if cert.verified else 1


def _cmd_large_n(args):
    d1 = load_dist(args.dist1)
    d2 = load_dist(args.dist2)
    n = dominance.large_numbers_n(d1, d2, args.n_max)
    _emit_json({"n": n}, args.out)
    return 0 if n is not None else 1


def _cmd_aggregate(args):
    where = args.profile
    rates, weights = _fields(_read_json(where), where, "rates", "weights")
    rates, weights = _numbers(rates, f"{where}: rates"), _numbers(weights, f"{where}: weights")
    profile = pref.AgentProfile(tuple(rates), pref.UtilitySpec.identity())
    social = pref.aggregate(profile, weights)
    out = {
        "weights": list(social.weights),
        "rate": social.rate,
        "statistic": measure_to_dict(social.statistic),
    }
    _emit_json(out, args.out)
    return 0


def _cmd_indiff_pair(args):
    rates = _numbers(args.rates, "--rates", text=True)
    pair = pref.indifference_pair(rates, args.c)
    out = {
        "T": dist_to_dict(pair.t_dist),
        "S": dist_to_dict(pair.s_dist),
        "c": pair.c,
        "eta": pair.eta,
        "d": list(pair.d_coeffs),
    }
    _emit_json(out, args.out)
    return 0


def _cmd_time_value(args):
    t_dist = load_dist(args.dist)
    mu = load_measure(args.measure)
    u = _utility_from_spec(args.utility)
    value = pref.time_value(args.x, t_dist, u, args.rate, mu)
    _emit_json({"value": value}, args.out)
    return 0


def _cmd_violation_search(args):
    p1 = _pref_from_spec(args.pref1)
    p2 = _pref_from_spec(args.pref2)
    values = tuple(_numbers(args.values, "--values", text=True))
    grid = pref.GambleGrid(values, args.prob_step, args.max_points)
    quad = pref.find_framing_violation(p1, p2, grid, max_candidates=args.budget)
    if quad is None:
        _emit_json({"found": False}, args.out)
        return 1
    names = ("X", "X_rejected", "Y", "Y_rejected")
    _emit_json(
        {"found": True, **{k: dist_to_dict(d) for k, d in zip(names, quad)}},
        args.out,
    )
    return 0


def _cmd_cdf_csv(args):
    d1 = load_dist(args.dist1)
    d2 = load_dist(args.dist2)
    if args.add:
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
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _selftest_checks(seed):
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    def fig1_pair():
        x = dist.make([0.0, 1.0], [2 / 3, 1 / 3])
        y = dist.discretize_uniform(-0.6, 0.4, 1e-3)
        return x, y

    def c_not_ranked():
        x, y = fig1_pair()
        assert not dominance.fosd(x, y).dominates
        assert not dominance.fosd(y, x).dominates

    check("cdfs-not-ranked", c_not_ranked)

    def c_two_point_catalyst():
        x, y = fig1_pair()
        z = dist.make([-0.2, 0.2], [0.5, 0.5])
        res = dominance.fosd(dist.convolve(x, z), dist.convolve(y, z), tol=5e-3)
        assert res.dominates

    check("two-point-catalyst", c_two_point_catalyst)

    def c_constructed_catalyst():
        x, y = fig1_pair()
        cert = dominance.find_catalyst_first(x, y)
        assert cert.verified and cert.worst_gap >= -1e-12

    check("constructed-catalyst", c_constructed_catalyst)

    def c_additivity():
        for _ in range(50):
            d1 = _random_dist(rng)
            d2 = _random_dist(rng)
            mu = _random_measure(rng)
            lhs = mas.evaluate(mu, dist.convolve(d1, d2))
            rhs = mas.evaluate(mu, d1) + mas.evaluate(mu, d2)
            assert abs(lhs - rhs) <= 1e-9

    check("additivity", c_additivity)

    def c_compare_example():
        mu1 = mas.point_mass(2.0)
        mu2 = mas.make_measure([1.0, 3.0], [0.25, 0.75])
        assert mas.compare(mu1, mu2).order is mas.CompareOrder.LE

    check("comparative-risk", c_compare_example)

    def c_aggregate():
        profile = pref.AgentProfile((1.0, 3.0), pref.UtilitySpec.identity())
        social = pref.aggregate(profile, [0.5, 0.5])
        assert social.rate == 1.5

    check("aggregation-rate", c_aggregate)

    def c_indiff():
        pair = pref.indifference_pair([0.5, 1.0, 2.0], 0.99)
        for r in (0.5, 1.0, 2.0):
            ratio = pref.discount_factor(pair.t_dist, r) / pref.discount_factor(
                pair.s_dist, r
            )
            assert abs(ratio - 0.99) <= 1e-10

    check("indifference-pair", c_indiff)

    return checks


def _random_dist(rng, n_min=2, n_max=6, lo=-2.0, hi=2.0):
    """A law of n_min .. n_max - 1 atoms uniform on [lo, hi], with
    Dirichlet(1) masses: selftest's random laws, and the test suite's."""
    n = int(rng.integers(n_min, n_max))
    support = np.sort(rng.uniform(lo, hi, n))
    support += np.arange(n) * 1e-6  # keep atoms apart
    probs = rng.dirichlet(np.ones(n))
    return dist.make(support, probs)


def _random_measure(rng, n_min=1, n_max=4, lo=-3.0, hi=3.0, allow_inf=False):
    """A mixing measure of n_min .. n_max - 1 atoms uniform on [lo, hi]; with
    allow_inf, the first atom moves to -inf or +inf three times in ten."""
    n = int(rng.integers(n_min, n_max))
    locs = rng.uniform(lo, hi, n)
    if allow_inf and rng.random() < 0.3:
        locs[0] = -np.inf if rng.random() < 0.5 else np.inf
    wts = rng.dirichlet(np.ones(n))
    return mas.make_measure(locs, wts)


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
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mastat",
        description="Monotone additive statistics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, configure):
        p = sub.add_parser(name)
        p.add_argument("--out", default=None)
        configure(p)
        p.set_defaults(fn=fn)
        return p

    add(
        "phi",
        _cmd_phi,
        lambda p: (
            p.add_argument("--measure", required=True),
            p.add_argument("--dist", required=True),
        ),
    )
    add(
        "kprofile",
        _cmd_kprofile,
        lambda p: (
            p.add_argument("--dist", required=True),
            p.add_argument("--n-grid", type=int, default=201),
        ),
    )
    add(
        "classify",
        _cmd_classify,
        lambda p: (
            p.add_argument("--measure", required=True),
            p.add_argument("--kind", choices=("risk", "betweenness"), default="risk"),
        ),
    )
    add(
        "compare",
        _cmd_compare,
        lambda p: (
            p.add_argument("measure1"),
            p.add_argument("measure2"),
            p.add_argument("--b-grid", default=None),
        ),
    )
    add(
        "dominance",
        _cmd_dominance,
        lambda p: (
            p.add_argument("dist1"),
            p.add_argument("dist2"),
            p.add_argument("--order", type=int, choices=(1, 2), default=1),
            p.add_argument("--tol", type=float, default=1e-12),
        ),
    )
    add(
        "catalyst",
        _cmd_catalyst,
        lambda p: (
            p.add_argument("dist1"),
            p.add_argument("dist2"),
            p.add_argument("--order", type=int, choices=(1, 2), default=1),
            p.add_argument("--margin", type=float, default=1e-6),
        ),
    )
    add(
        "large-n",
        _cmd_large_n,
        lambda p: (
            p.add_argument("dist1"),
            p.add_argument("dist2"),
            p.add_argument("--n-max", type=int, default=32),
        ),
    )
    add("aggregate", _cmd_aggregate, lambda p: p.add_argument("profile"))
    add(
        "indiff-pair",
        _cmd_indiff_pair,
        lambda p: (
            p.add_argument("--rates", required=True),
            p.add_argument("--c", type=float, required=True),
        ),
    )
    add(
        "time-value",
        _cmd_time_value,
        lambda p: (
            p.add_argument("--x", type=float, required=True),
            p.add_argument("--dist", required=True),
            p.add_argument("--utility", default="identity"),
            p.add_argument("--rate", type=float, required=True),
            p.add_argument("--measure", required=True),
        ),
    )
    add(
        "violation-search",
        _cmd_violation_search,
        lambda p: (
            p.add_argument("--pref1", required=True),
            p.add_argument("--pref2", required=True),
            p.add_argument("--values", default="-2,-1,0,1"),
            p.add_argument("--prob-step", type=float, default=0.25),
            p.add_argument("--max-points", type=int, default=2),
            p.add_argument("--budget", type=int, default=10**5),
        ),
    )
    add(
        "cdf-csv",
        _cmd_cdf_csv,
        lambda p: (
            p.add_argument("dist1"),
            p.add_argument("dist2"),
            p.add_argument("--add", default=None),
        ),
    )
    add("selftest", _cmd_selftest, lambda p: p.add_argument("--seed", type=int, default=0))
    return parser


def _validate(args) -> None:
    checks = {
        "tol": lambda v: v >= 0,
        "margin": lambda v: v >= 0,
        "n_grid": lambda v: v >= 3,
        "n_max": lambda v: v >= 1,
        "budget": lambda v: v >= 1,
        "prob_step": lambda v: 0 < v <= 1,
        "max_points": lambda v: v >= 1,
    }
    for name, good in checks.items():
        value = getattr(args, name, None)
        if value is not None and not good(value):
            raise InputError(f"--{name.replace('_', '-')} out of range: {value}")


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _validate(args)
        return args.fn(args)
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
