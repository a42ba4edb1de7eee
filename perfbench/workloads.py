"""The benchmark's workloads.

A workload builds its inputs from a seed, lists the ops of one pass (the
same list every pass), and checks each op's output. Input generation and
checks call mastat directly; ops call it through a `spans.Layers`, so a
traced run sees exactly the calls the ops make. README.md says why each
workload was chosen and which layers it bypasses.

Check names start with the workload name, so a failure reads as
`<workload>.<check>`.
"""

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from mastat import cgf, cli, dist, dominance, mas, pref

from metrics import CLI_SUBCOMMANDS
from spans import durations, median_or_zero

_GAP_TOL = 1e-12


class Op(NamedTuple):
    label: str
    run: Callable[[Any], Any]  # Layers -> output


def _raw_dist(rng, n_min, n_max, lo, hi):
    """Support and probabilities of a random n_min..n_max atom law on [lo, hi]."""
    n = int(rng.integers(n_min, n_max + 1))
    support = np.sort(rng.uniform(lo, hi, n)) + np.arange(n) * 1e-6
    return support, rng.dirichlet(np.ones(n))


def _mean(d):
    return float(np.dot(d.probs, d.support))


def _figure_pair():
    """The paper's figure pair: X on {0, 1}, Y uniform on [-0.6, 0.4]."""
    return dist.make([0.0, 1.0], [2 / 3, 1 / 3]), dist.discretize_uniform(-0.6, 0.4, 1e-3)


class Workload:
    """Hooks a workload may override; see the module docstring."""

    def finish(self):
        """(op index, check name) for each op a post-run recheck rejects."""
        return []

    def extra_ops(self):
        """Ops a traced run makes once, after its passes, for layer figures
        that no pass op gives; their outputs go to check_extra."""
        return []

    def check_extra(self, index, out):
        return None

    def layer_metrics(self, spans):
        """Workload-specific per-layer metrics from the traced run's spans."""
        return {}

    def close(self):
        pass


# ---------------------------------------------------------------------------


def _tiny_case(case, api):
    (xs, xp), (ys, yp), (locs, wts) = case
    x = api.dist.make(xs, xp)
    y = api.dist.make(ys, yp)
    mu = api.mas.make_measure(locs, wts)
    xy = api.dist.convolve(x, y)
    values = (api.mas.evaluate(mu, x), api.mas.evaluate(mu, y), api.mas.evaluate(mu, xy))
    return (
        (x, y, xy),
        mu,
        values,
        api.dominance.fosd(x, y),
        api.dominance.sosd(x, y),
        api.cgf.k_dominates(x, y),
    )


class TinyBatch(Workload):
    """Per-call overhead on 2-5 atom laws, like acceptance criteria 04, 05,
    10, and the CLI's small subcommands run in process on such laws."""

    name = "tiny-batch"
    SIZES = {"full": 250, "tiny": 20}  # cases per pass
    CLI_REPEATS = {"full": 3, "tiny": 1}  # traced runs of each subcommand
    CLI_PASS = ("phi", "dominance", "kprofile")  # in process, every pass

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        self.cases = []
        for _ in range(self.SIZES[size]):
            x = _raw_dist(rng, 2, 5, -2.0, 2.0)
            y = _raw_dist(rng, 2, 5, -2.0, 2.0)
            n = int(rng.integers(1, 4))
            locs = rng.uniform(-3.0, 3.0, n)
            if rng.random() < 0.3:
                locs[0] = -np.inf if rng.random() < 0.5 else np.inf
            self.cases.append((x, y, (locs, rng.dirichlet(np.ones(n)))))
        self.cli = CliRuns(self.name, seed, rng, workdir)
        self.repeats = self.CLI_REPEATS[size]
        self.extra_runs = []  # (subcommand, mode) of each extra op

    def ops(self):
        ops = [Op("case", partial(_tiny_case, case)) for case in self.cases]
        return ops + [self.cli.op(sub, "run") for sub in self.CLI_PASS]

    def check(self, index, out):
        if index >= len(self.cases):
            return self.cli.check(self.CLI_PASS[index - len(self.cases)], "run", out)
        dists, mu, values, first, second, _k = out
        ex, ey, exy = values
        if not abs(exy - (ex + ey)) <= 1e-9:
            return "tiny-batch.additivity"
        means = [_mean(d) for d in dists]
        if np.all(mu.locations <= 0) and any(
            v > m + 1e-10 for v, m in zip(values, means)
        ):
            return "tiny-batch.averse-above-mean"
        if np.all(mu.locations >= 0) and any(
            v < m - 1e-10 for v, m in zip(values, means)
        ):
            return "tiny-batch.seeking-below-mean"
        if first.dominates and not second.dominates:
            return "tiny-batch.fosd-without-sosd"
        return None

    def extra_ops(self):
        """The subcommands a pass does not run, in process, and every
        subcommand as its own process."""
        self.extra_runs = [
            (sub, mode)
            for sub in CLI_SUBCOMMANDS
            for _ in range(self.repeats)
            for mode in ("run", "process")
            if mode == "process" or sub not in self.CLI_PASS
        ]
        return [self.cli.op(sub, mode) for sub, mode in self.extra_runs]

    def check_extra(self, index, out):
        return self.cli.check(*self.extra_runs[index], out)

    def layer_metrics(self, spans):
        return self.cli.layer_metrics(spans, self.repeats)

    def close(self):
        self.cli.close()


# ---------------------------------------------------------------------------


def _strict_pairs(rng, n):
    """Seeded pairs whose CGF profiles dominate strictly at margin 1e-3,
    drawn like acceptance criterion 02. Every eighth pair is X on {0, 1}
    against a uniform Y with F_X(0) > F_Y(0), which needs a catalyst sweep.
    The others are Y = X - delta + noise, which X dominates: about 80% of
    them pass `fosd` at once, and the rest fail it by rounding and need a
    sweep. Fixed shares and atom counts keep the pass's cost hanging
    little on the seed, and keep its median and 90th-percentile ops away
    from the edge between the two costs."""
    pairs = []
    while len(pairs) < n:
        if len(pairs) % 8 == 7:
            lo = -float(rng.uniform(0.4, 0.7))
            hi = float(rng.uniform(0.2, 0.4))
            p = float(rng.uniform(0.25, 0.45))
            if 1.0 - p < -lo / (hi - lo) + 0.02:
                continue
            x = dist.make([0.0, 1.0], [1.0 - p, p])
            y = dist.discretize_uniform(lo, hi, (hi - lo) / 24)
        else:
            x = dist.make(*_raw_dist(rng, 3, 3, 0.0, 1.0))
            delta = float(rng.uniform(0.05, 0.25))
            eps = delta * float(rng.uniform(0.2, 0.8))
            noise = dist.make([-eps, eps], [0.5, 0.5])
            y = dist.convolve(dist.shift(x, -delta), noise)
        if cgf.k_dominates(x, y, margin=1e-3).order is cgf.KOrder.STRICT:
            pairs.append((x, y))
    return pairs


def _same_cert(a, b):
    return (
        a.order == b.order
        and a.params == b.params
        and a.worst_gap == b.worst_gap
        and np.array_equal(a.catalyst.support, b.catalyst.support)
        and np.array_equal(a.catalyst.probs, b.catalyst.probs)
    )


def _v_doublings(cert):
    """How often construction doubled the catalyst variance V from N^2."""
    p = cert.params
    return round(math.log2(p.variance / max(p.n_half_range**2, 1e-8)))


def _find(order, x, y, margin, api):
    if order == "first":
        return api.dominance.find_catalyst_first(x, y, margin=margin)
    return api.dominance.find_catalyst_second(x, y, margin=margin)


class CatalystLadder(Workload):
    """Catalyst construction on the figure pair with Y shifted up by 0, 0.2,
    0.31 and 0.33, plus strict pairs like criterion 02. Passes make the
    rungs that take at most about 0.1 s; the others run only in traced
    runs, because a call's best time is steady only if it repeats often."""

    name = "catalyst-ladder"
    SIZES = {
        "full": {
            "rungs": ("first-000", "first-020", "second-031"),
            "hard_rungs": ("second-033", "first-031", "first-033"),
            "pairs": 100,
            "z_atoms": 16384,
        },
        "tiny": {
            "rungs": ("first-000", "second-031"),
            "hard_rungs": ("first-020",),
            "pairs": 5,
            "z_atoms": 129,
        },
    }

    def __init__(self, seed, size, workdir):
        cfg = self.SIZES[size]
        self.x, self.y0 = _figure_pair()

        def rung(label):
            order, shift = label.split("-")
            return label, order, dist.shift(self.y0, int(shift) / 100)

        self.rungs = [rung(label) for label in cfg["rungs"]]  # pass ops
        self.hard_rungs = [rung(label) for label in cfg["hard_rungs"]]  # extra ops
        self.y_hard = dist.shift(self.y0, 0.33)
        self.pairs = _strict_pairs(np.random.default_rng(seed), cfg["pairs"])
        self.z16k = dist.discretize_trunc_gaussian(1.0, 20.0, 40.0 / cfg["z_atoms"])
        self.inputs = {}  # op index -> (x, y) of a certificate op
        self.certs = {}  # op index -> first certificate seen
        self.rung_certs = {}  # rung label -> certificate

    def ops(self):
        ops = []  # the rungs come first, so rung i is op i
        for label, order, y in self.rungs:
            self.inputs[len(ops)] = (self.x, y)
            ops.append(Op(label, partial(_find, order, self.x, y, 1e-6)))
        ops.append(Op("k-dominates", self._k_dominates))
        for x, y in self.pairs:
            self.inputs[len(ops)] = (x, y)
            ops.append(Op("pair", partial(_find, "first", x, y, 1e-3)))
        return ops

    def _k_dominates(self, api):
        return api.cgf.k_dominates(self.x, self.y_hard)

    @staticmethod
    def _cert_failure(cert):
        if not (cert.verified and cert.worst_gap >= -_GAP_TOL):
            return "catalyst-ladder.unverified"
        return None

    def check(self, index, out):
        if index not in self.inputs:
            return None if out.order is cgf.KOrder.STRICT else "catalyst-ladder.k-not-strict"
        failure = self._cert_failure(out)
        if failure:
            return failure
        first = self.certs.setdefault(index, out)
        if index < len(self.rungs):
            self.rung_certs[self.rungs[index][0]] = first
        if first is not out and not _same_cert(first, out):
            return "catalyst-ladder.nondeterministic"
        return None

    def finish(self):
        """Re-run each certificate's sweep outside the timed phase."""
        bad = []
        for index, cert in self.certs.items():
            x, y = self.inputs[index]
            if not dominance.verify_certificate(cert, x, y) >= -_GAP_TOL:
                bad.append((index, "catalyst-ladder.recheck"))
        return bad

    def _final_rung(self):
        """Label and Y of the hardest first-order rung."""
        label, _, y = [r for r in self.rungs + self.hard_rungs if r[1] == "first"][-1]
        return label, y

    def extra_ops(self):
        ops = [Op(label, partial(_find, order, self.x, y, 1e-6))
               for label, order, y in self.hard_rungs]
        return ops + [
            Op("sweep-final", self._sweep_final),
            # the sweeps benchmarks/bench_kernels.py timed: figure pair, 16k-atom Z
            Op("sweep-16k", lambda api: api.dominance.fosd_with_catalyst(
                self.x, self.y0, self.z16k)[0]),
            Op("sweep-16k", lambda api: api.dominance.sosd_with_catalyst(
                self.x, self.y0, self.z16k)[0]),
        ]

    def _sweep_final(self, api):
        label, y = self._final_rung()
        return api.dominance.verify_certificate(self.rung_certs[label], self.x, y)

    def check_extra(self, index, out):
        if index < len(self.hard_rungs):
            label, _, y = self.hard_rungs[index]
            failure = self._cert_failure(out)
            if failure:
                return failure
            self.rung_certs[label] = out
            # the final rung's recheck is the sweep-final op itself
            if label != self._final_rung()[0] and not (
                dominance.verify_certificate(out, self.x, y) >= -_GAP_TOL
            ):
                return "catalyst-ladder.recheck"
            return None
        if index == len(self.hard_rungs):
            return None if out >= -_GAP_TOL else "catalyst-ladder.recheck"
        return None if math.isfinite(out) else "catalyst-ladder.sweep-16k"

    def layer_metrics(self, spans):
        m = {"cgf.k_dominates.ms": 1e3 * median_or_zero(
            durations(spans, "cgf.k_dominates", label="k-dominates"))}
        for label, _order, _y in self.rungs + self.hard_rungs:
            cert = self.rung_certs[label]
            m[f"dominance.find_catalyst.s.{label}"] = median_or_zero(
                durations(spans, prefix="dominance.find_catalyst_", label=label)
            )
            m[f"dominance.cert.atoms.{label}"] = cert.catalyst.n_atoms
            m[f"dominance.cert.v_doublings.{label}"] = _v_doublings(cert)
        label, y = self._final_rung()
        cert = self.rung_certs[label]
        sweep_s = median_or_zero(durations(spans, "dominance.verify_certificate"))
        breakpoints = dist.merged_support(self.x, y).size * cert.catalyst.n_atoms
        m["dominance.sweep.s"] = sweep_s
        m["dominance.sweep.breakpoints"] = breakpoints
        m["dominance.sweep.ns_per_breakpoint"] = sweep_s * 1e9 / breakpoints
        m["dominance.sweep.16k.first.s"] = median_or_zero(
            durations(spans, "dominance.fosd_with_catalyst"))
        m["dominance.sweep.16k.second.s"] = median_or_zero(
            durations(spans, "dominance.sosd_with_catalyst"))
        return m


# ---------------------------------------------------------------------------


def _obstructed_pairs(rng, n):
    """Seeded pairs whose CGF profiles cross, like acceptance criterion 03.
    Every law has 3 atoms, so the cost of a pair's n-fold powers does not
    hang on the seed."""
    pairs = []
    while len(pairs) < n:
        x = dist.make(*_raw_dist(rng, 3, 3, -1.0, 1.0))
        y = dist.make(*_raw_dist(rng, 3, 3, -1.0, 1.0))
        if cgf.k_dominates(x, y).order is cgf.KOrder.FAILS:
            pairs.append((x, y))
    return pairs


def _large_n(x, y, api):
    return api.dominance.large_numbers_n(x, y, 32)


def _iid_power(d, api):
    return api.dist.iid_power(d, 32)


def _power_ok(d, power, n):
    scale = n * max(1.0, abs(d.support[0]), abs(d.support[-1]))
    return (
        abs(_mean(power) - n * _mean(d)) <= 1e-12 * scale
        and abs(power.probs.sum() - 1.0) <= 1e-12
        and abs(power.support[0] - n * d.support[0]) <= 1e-7
        and abs(power.support[-1] - n * d.support[-1]) <= 1e-7
    )


def _has_violation(preference, gambles):
    """Whether any quadruple of `gambles` is a framing violation for
    `preference` on both sides, by brute force outside pref's search loop."""
    values = [preference(g) for g in gambles]
    n = len(gambles)
    ranked = [(i, j) for i in range(n) for j in range(n) if values[i] > values[j]]
    sums = {(i, j): dist.convolve(gambles[i], gambles[j]) for i in range(n) for j in range(n)}
    for i, ip in ranked:
        for k, kp in ranked:
            res = dominance.fosd(sums[ip, kp], sums[i, k], tol=1e-12)
            if res.dominates and res.strict:
                return True
    return False


class Search(Workload):
    """Framing-violation searches and large-numbers searches on
    CGF-obstructed pairs: many convolutions and comparisons of small laws.
    Criterion 12's searches take 0.5-5 s a call, so only traced runs make
    them; the pass searches a coarser grid of the same values."""

    name = "search"
    VALUES = (-2.0, -1.0, 0.0, 1.0)  # criterion 12's outcomes
    SIZES = {
        "full": {"step": 0.25, "pairs": 35},  # 107 ops a pass
        "tiny": {"step": 1 / 3, "pairs": 3},
    }
    BUDGET = 10**5

    def __init__(self, seed, size, workdir):
        cfg = self.SIZES[size]
        self.grid = pref.GambleGrid(self.VALUES, cfg["step"], 2)  # criterion 12's
        self.coarse = pref.GambleGrid(self.VALUES, 0.5, 2)
        self.n_gambles = len(self.coarse.gambles())
        self.stat = pref.preference_mas(mas.make_measure([-0.5, 1.0], [0.5, 0.5]))
        self.candidates = pref.count_candidates(self.stat, self.stat, self.grid)
        self.pairs = _obstructed_pairs(np.random.default_rng(seed), cfg["pairs"])

    def ops(self):
        ops = [
            Op("gambles", lambda api: api.call("pref.gambles", self.coarse.gambles)),
            Op("median-coarse", partial(self._search, pref.median, self.coarse)),
        ]
        self.powered = {}  # op index -> law of an iid-power op
        for x, y in self.pairs:
            ops.append(Op("large-n", partial(_large_n, x, y)))
            for d in (x, y):
                self.powered[len(ops)] = d
                ops.append(Op("iid-power", partial(_iid_power, d)))
        return ops

    def extra_ops(self):
        return [
            Op("median", partial(self._search, pref.median, self.grid)),
            Op("mas", partial(self._search, self.stat, self.grid)),
        ]

    def _search(self, preference, grid, api):
        return api.pref.find_framing_violation(preference, preference, grid, self.BUDGET)

    def check(self, index, out):
        if index == 0:
            ok = len(out) == self.n_gambles and all(
                set(g.support) <= set(self.VALUES) for g in out
            )
            return None if ok else "search.gambles"
        if index == 1:
            return None if out is None else "search.median-coarse-violation"
        if index in self.powered:
            return None if _power_ok(self.powered[index], out, 32) else "search.iid-power"
        return None if out is None else "search.large-n-ranked"

    def finish(self):
        """The coarse grid has no violation: confirm it by brute force."""
        if _has_violation(pref.median, self.coarse.gambles()):
            return [(1, "search.median-coarse-recheck")]
        return []

    @staticmethod
    def _is_violation(quad):
        if quad is None:
            return False
        x, xr, y, yr = quad
        if not (pref.median(x) > pref.median(xr) and pref.median(y) > pref.median(yr)):
            return False
        res = dominance.fosd(dist.convolve(xr, yr), dist.convolve(x, y), tol=1e-12)
        return res.dominates and res.strict

    def check_extra(self, index, out):
        if index == 0:
            return None if self._is_violation(out) else "search.median-no-violation"
        return None if out is None else "search.mas-violation"

    def layer_metrics(self, spans):
        name = "pref.find_framing_violation"
        mas_s = median_or_zero(durations(spans, name, label="mas"))
        return {
            "pref.gambles.ms": 1e3 * median_or_zero(durations(spans, "pref.gambles")),
            f"{name}.s.median": median_or_zero(durations(spans, name, label="median")),
            f"{name}.s.mas": mas_s,
            "pref.search.us_per_candidate": mas_s * 1e6 / self.candidates,
            "dominance.large_numbers_n.ms_p50": 1e3
            * median_or_zero(durations(spans, "dominance.large_numbers_n")),
            "dist.iid_power.ms": 1e3 * median_or_zero(durations(spans, "dist.iid_power")),
        }


# ---------------------------------------------------------------------------


def _dist_json(support, probs):
    return {"support": list(map(float, support)), "probs": list(map(float, probs))}


def _invoke(argv, api):
    proc = api.call("cli.process", subprocess.run, argv, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def _run_in_process(argv, api):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.run(argv)
    return code, buf.getvalue().encode()


class CliRuns:
    """The `mastat` CLI on seeded JSON files written under the work
    directory: ops that run a subcommand in process or as its own process,
    and checks of what it prints against the library called directly."""

    def __init__(self, workload_name, seed, rng, workdir):
        self.prefix = workload_name + ".cli"
        self.dir = os.path.join(workdir, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        n = int(rng.integers(1, 4))
        locs = rng.uniform(-3.0, 3.0, n)
        locs[0] = np.inf if rng.random() < 0.5 else -np.inf
        fx, fy = _figure_pair()
        files = {
            "x": _dist_json(*_raw_dist(rng, 2, 5, -2.0, 2.0)),
            "y": _dist_json(*_raw_dist(rng, 2, 5, -2.0, 2.0)),
            "mu": {
                "atoms": [
                    {"a": str(a) if np.isinf(a) else float(a), "w": float(w)}
                    for a, w in zip(locs, rng.dirichlet(np.ones(n)))
                ]
            },
            "fx": _dist_json(fx.support, fx.probs),
            "fy": _dist_json(fy.support, fy.probs),
        }
        path = {}
        for key, obj in files.items():
            path[key] = os.path.join(self.dir, f"{key}.json")
            with open(path[key], "w") as fh:
                json.dump(obj, fh)
        # expected outputs come from the same files, read in this process
        self.x, self.y, self.fx, self.fy = (
            cli.load_dist(path[key]) for key in ("x", "y", "fx", "fy")
        )
        self.mu = cli.load_measure(path["mu"])
        self.args = {
            "phi": ["phi", "--measure", path["mu"], "--dist", path["x"]],
            "dominance": ["dominance", path["x"], path["y"]],
            "kprofile": ["kprofile", "--dist", path["x"]],
            "catalyst": ["catalyst", path["fx"], path["fy"]],
            "selftest": ["selftest", "--seed", str(seed)],
        }
        dominates = dominance.fosd(self.x, self.y, tol=1e-12).dominates
        self.expected_code = {sub: 0 for sub in CLI_SUBCOMMANDS}
        self.expected_code["dominance"] = 0 if dominates else 1
        self.stdout = {}  # (mode, subcommand) -> stdout bytes of its first run

    def op(self, sub, mode):
        """Run a subcommand with `cli.run` in this process (mode "run") or
        as its own `python -m mastat.cli` process (mode "process"). Either
        op returns (exit code, stdout bytes)."""
        if mode == "run":
            return Op(sub, partial(_run_in_process, self.args[sub]))
        cmd = [sys.executable, "-m", "mastat.cli"] + self.args[sub]
        return Op(sub, partial(_invoke, cmd))

    def check(self, sub, mode, out):
        code, stdout = out
        if code != self.expected_code[sub]:
            return f"{self.prefix}-exit-code"
        first = self.stdout.setdefault((mode, sub), stdout)
        if first is not stdout:
            return None if stdout == first else f"{self.prefix}-stdout-changed"
        return None if self._content_ok(sub, stdout) else f"{self.prefix}-{sub}-output"

    def _content_ok(self, sub, stdout):
        """First run of a subcommand: compare with the library in process."""
        if sub == "kprofile":
            rows = stdout.decode().splitlines()[1:]
            prof = cgf.k_profile(self.x)
            return [float(r.split(",")[1]) for r in rows] == prof.values.tolist()
        if sub == "selftest":
            return stdout.endswith(b"ok: 7/7 checks passed\n")
        obj = json.loads(stdout)
        if sub == "phi":
            return obj["value"] == mas.evaluate(self.mu, self.x)
        if sub == "dominance":
            res = dominance.fosd(self.x, self.y, tol=1e-12)
            return obj["dominates"] == res.dominates and obj["min_gap"] == res.min_gap
        if not (obj["verified"] is True and obj["worst_gap"] >= -_GAP_TOL):
            return False
        # re-run the sweep for the catalyst the CLI printed
        z = dist.make(obj["catalyst"]["support"], obj["catalyst"]["probs"])
        return dominance.fosd_with_catalyst(self.fx, self.fy, z)[0] >= -_GAP_TOL

    def layer_metrics(self, spans, repeats):
        def process_ms(code):
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
                samples.append((time.perf_counter() - start) * 1e3)
            return statistics.median(samples)

        interp = process_ms("pass")
        m = {"cli.interp_ms": interp, "cli.import_ms": process_ms("import mastat.cli") - interp}
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.run_ms.{sub}"] = 1e3 * median_or_zero(durations(spans, "cli.run", label=sub))
            m[f"cli.process_ms.{sub}"] = 1e3 * median_or_zero(
                durations(spans, "cli.process", label=sub))
        return m

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TinyBatch, CatalystLadder, Search)}
