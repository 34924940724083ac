import math

import numpy as np
import pytest

from ffcs.util import log_factorials, log_of_int, logsumexp, wilson_interval


def test_logsumexp_of_all_neg_inf_is_neg_inf():
    assert logsumexp(np.full(1, -math.inf)) == -math.inf
    assert logsumexp(np.full(5, -math.inf)) == -math.inf


def test_log_factorials_match_exact_integers():
    lf = log_factorials(2000)
    assert lf.shape == (2001,)
    fact = 1
    for j in range(2001):
        fact *= max(j, 1)
        assert math.isclose(lf[j], log_of_int(fact), rel_tol=1e-14), j


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: log_of_int(-1), "nonnegative"),
        (lambda: wilson_interval(0, 0), "trials >= 1"),
        (lambda: wilson_interval(3, 2), r"successes must lie in \[0, trials\]"),
    ],
    ids=["log-of-negative", "no-trials", "more-successes-than-trials"],
)
def test_arguments_outside_the_domain_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
