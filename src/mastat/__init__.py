"""mastat: monotone additive statistics over finite discrete distributions.

The statistic family is value(mu, X) = integral of K_a(X) over a finite
atomic mixing measure mu, where K_a is the normalized cumulant generating
function (CARA certainty equivalent). The package provides the measure
algebra on finite distributions, CGF profiles and dominance checks,
constructive catalytic dominance certificates, risk classification and
comparison, and time-preference evaluation and aggregation.
"""

__version__ = "0.1.0"
