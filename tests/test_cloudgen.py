import numpy as np
import pytest

from cloudinv import (Cloud, CloudGenSpec, KINDS, generate_cloud,
                      is_collinear, linear_coefficients)
from cloudinv.coefficients import _CHUNK
from conftest import traced_peak


class TestSpecValidation:
    @pytest.mark.parametrize("field,args", [
        ("n", (2.5,)), ("n", ("10",)), ("n", (True,)), ("n", (10.0,)),
        ("seed", (10, 0.0, 1.5)), ("seed", (10, 0.0, "3")),
        ("seed", (10, 0.0, False))])
    def test_non_integer_count_or_seed(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            CloudGenSpec("ellipse", *args)

    @pytest.mark.parametrize("noise", ["0.1", True, False, None, [0.1]])
    def test_non_real_noise(self, noise):
        with pytest.raises(ValueError, match="^noise must be finite, got "):
            CloudGenSpec("ellipse", 10, noise)


def test_noiseless_line_exactly_collinear():
    cloud = generate_cloud(CloudGenSpec(kind="line-with-noise", n=50,
                                        noise=0.0, seed=99))
    assert is_collinear(cloud)
    lc = linear_coefficients(cloud)
    assert lc.h - lc.m ** 2 == 0.0


def reference_arrays(spec):
    """The generators as plain array formulas, each step a fresh array."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "uniform-box":
        return rng.random(n), rng.random(n)
    if spec.kind == "line-with-noise":
        xs = 2.0 * rng.random(n)
        ys = 0.5 * xs
        if spec.noise > 0:
            ys = ys + spec.noise * rng.standard_normal(n)
        return xs, ys
    if spec.kind == "ellipse":
        theta = 2.0 * np.pi * rng.random(n)
        xs = 0.5 + 1.0 * np.cos(theta)
        ys = 0.5 + 0.5 * np.sin(theta)
    else:
        k = n // 2
        t1 = rng.random(k)
        t2 = rng.random(n - k)
        xs = np.concatenate([t1, 1.0 + t2])
        ys = np.concatenate([2.0 * t1, 2.0 - t2])
    if spec.noise > 0:
        xs = xs + spec.noise * rng.standard_normal(n)
        ys = ys + spec.noise * rng.standard_normal(n)
    return xs, ys


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 101, 500, 1001, 10000, 70000])
@pytest.mark.parametrize("noise", [0.0, 0.05, 0.1])
def test_bit_identical_to_reference_formulas(kind, n, noise):
    spec = CloudGenSpec(kind=kind, n=n, noise=noise, seed=n + 17)
    cloud = generate_cloud(spec)
    xs, ys = reference_arrays(spec)
    assert cloud.xs.tobytes() == xs.tobytes()
    assert cloud.ys.tobytes() == ys.tobytes()
    assert not (cloud.xs.flags.writeable or cloud.ys.flags.writeable)
    assert cloud._moments == Cloud.from_arrays(xs, ys)._moments


@pytest.mark.parametrize("kind", KINDS)
def test_generation_allocates_cloud_and_one_noise_buffer(kind):
    # The two coordinate arrays, which the cloud keeps, a chunk-sized noise
    # buffer and the chunk buffers of the reduction: no full-size
    # temporaries beyond those.
    n = 1_000_000
    spec = CloudGenSpec(kind=kind, n=n, noise=0.05, seed=3)
    limit = 16 * n + 32 * _CHUNK + 64 * 1024
    assert traced_peak(lambda: generate_cloud(spec)) <= limit
