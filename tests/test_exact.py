"""The exact oracle agrees with itself: its two ways to sum a cloud give the
same integers."""
import numpy as np
import pytest

import exact


@pytest.mark.parametrize("kind", ["unit", "offset", "wide", "zeros", "constant"])
def test_limb_sums_are_the_integer_sums(monkeypatch, kind):
    # Large clouds are summed in int64 limbs, others in Python integers; the
    # wide cloud needs more limbs than the limb path takes, so both fall back.
    rng = np.random.default_rng(7)
    n = exact._LARGE + 5
    xs, ys = {
        "unit": (rng.standard_normal(n), rng.standard_normal(n)),
        "offset": (1e8 + rng.standard_normal(n), -3e7 + rng.standard_normal(n)),
        "wide": (1e-9 * rng.random(n), 1e9 * rng.random(n)),
        "zeros": (np.r_[np.zeros(n - 2), 1.0, -0.5], rng.random(n)),
        "constant": (np.full(n, 3.5), np.arange(float(n))),
    }[kind]
    limbs = exact._limb_sums(xs, ys)
    assert (limbs is None) is (kind == "wide")
    fast = exact.centered_sums(xs, ys)
    monkeypatch.setattr(exact, "_LARGE", 1 << 19)
    assert exact.centered_sums(xs, ys) == fast
