"""Names and units of every metric the benchmark prints.

BENCHMARK.json at the checkout root lists the same names; a test keeps the
two in step. Every run prints every name of its mode: end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1`. A layer a workload
never calls reports 0 calls and 0 time.
"""

WORKLOAD_NAMES = ("tiny-batch", "catalyst-ladder", "search")

#: ops of the catalyst ladder, `<order>-<Y shift in hundredths>`
RUNGS = ("first-000", "first-020", "first-031", "first-033", "second-031", "second-033")

#: subcommands tiny-batch runs through the CLI, in process and as processes
CLI_SUBCOMMANDS = ("phi", "dominance", "kprofile", "catalyst", "selftest")

#: public functions a tiny-batch case calls, timed per call on every workload
TINY_CALLS = (
    "dist.make",
    "dist.convolve",
    "mas.make_measure",
    "mas.evaluate",
    "cgf.k_dominates",
    "dominance.fosd",
    "dominance.sosd",
)

LAYERS = ("dist", "cgf", "mas", "dominance", "pref", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_cal", "cal"),
    ("op_p50_cal", "cal"),
    ("op_p90_cal", "cal"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    tuple((f"{name}.us_p50", "us") for name in TINY_CALLS)
    + tuple((f"{name}.calls", "count") for name in TINY_CALLS)
    + (("cgf.k_dominates.ms", "ms"),)
    + tuple((f"dominance.find_catalyst.s.{rung}", "s") for rung in RUNGS)
    + (
        ("dominance.sweep.s", "s"),
        ("dominance.sweep.breakpoints", "count"),
        ("dominance.sweep.ns_per_breakpoint", "ns"),
        ("dominance.sweep.16k.first.s", "s"),
        ("dominance.sweep.16k.second.s", "s"),
    )
    + tuple((f"dominance.cert.atoms.{rung}", "count") for rung in RUNGS)
    + tuple((f"dominance.cert.v_doublings.{rung}", "count") for rung in RUNGS)
    + (
        ("pref.gambles.ms", "ms"),
        ("pref.find_framing_violation.s.median", "s"),
        ("pref.find_framing_violation.s.mas", "s"),
        ("pref.search.us_per_candidate", "us"),
        ("dominance.large_numbers_n.ms_p50", "ms"),
        ("dist.iid_power.ms", "ms"),
        ("cli.interp_ms", "ms"),
        ("cli.import_ms", "ms"),
    )
    + tuple((f"cli.run_ms.{sub}", "ms") for sub in CLI_SUBCOMMANDS)
    + tuple((f"cli.process_ms.{sub}", "ms") for sub in CLI_SUBCOMMANDS)
    + tuple((f"{layer}.errors", "count") for layer in LAYERS)
    + (
        ("bench.check.us_p50", "us"),
        ("bench.op_self.us_p50", "us"),
        ("bench.trace_overhead_s", "s"),
        ("bench.ref_ms", "ms"),
        ("bench.cal_ms", "ms"),
    )
)
