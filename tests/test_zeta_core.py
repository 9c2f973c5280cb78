"""Evaluator tests: partial sums, the correction tail, certified bounds,
parameter selection, and agreement with independent references."""

from __future__ import annotations

import cmath
import math
import random
import os
import struct
import subprocess
import sys
import threading
from array import array

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zetagb import zeta_core
from zetagb.errors import ParameterError, PoleError, PrecisionError
from zetagb.qfunction import q_gb
from zetagb.zero_scan import refine_zero
from zetagb.zeta_core import (
    DEFAULT_TARGET_EPS,
    EvalParams,
    auto_params,
    dirichlet_line,
    dirichlet_partial_sum,
    em_tail,
    remainder_bound,
    zeta_gb,
)

PI2_OVER_6 = math.pi * math.pi / 6
EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def test_partial_sum_tiny_cutoffs() -> None:
    assert dirichlet_partial_sum(2 + 0j, 2) == 1.0
    assert dirichlet_partial_sum(2 + 0j, 3) == 1.25


def test_partial_sum_frozen_value() -> None:
    # frozen: oracles.direct_series(2, 999) == 1.64393356668156
    value = dirichlet_partial_sum(2 + 0j, 1000)
    assert value.imag == 0.0
    assert value.real == pytest.approx(1.64393356668156, abs=5e-14)
    assert value.real == pytest.approx(PI2_OVER_6, abs=1.1e-3)


def test_partial_sum_validation() -> None:
    with pytest.raises(ParameterError):
        dirichlet_partial_sum(2 + 0j, 1)
    with pytest.raises(ParameterError):
        dirichlet_partial_sum(2 + 0j, 10.0)  # type: ignore[arg-type]
    with pytest.raises(ParameterError):
        dirichlet_partial_sum(float("nan"), 10)


_CUTOFFS = (2, 3, 62, 503, 1002)


def _fresh_log_table(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(zeta_core, "_LOGS", array("d", [0.0]))


def _uncached_sum(s: complex, cutoff_n: int) -> complex:
    # the kernel before the shared table: a fresh math.log per term
    total = 1.0 + 0.0j
    for n in range(2, cutoff_n):
        total += cmath.exp(-s * math.log(n))
    return total


def _same_bits(got: complex, want: complex) -> bool:
    return got.real == want.real and got.imag == want.imag


def test_partial_sum_matches_uncached_logs_bitwise(monkeypatch: pytest.MonkeyPatch) -> None:
    rng = random.Random(20151)
    points = [complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0)) for _ in range(200)]
    want = {(s, n): _uncached_sum(s, n) for s in points for n in _CUTOFFS}
    _fresh_log_table(monkeypatch)
    for n in _CUTOFFS:  # ascending from a fresh table: it grows at each cutoff
        assert all(_same_bits(dirichlet_partial_sum(s, n), want[s, n]) for s in points)
    assert len(zeta_core._LOGS) == 1002
    for n in reversed(_CUTOFFS):  # descending: each cutoff reads a prefix of the full table
        assert all(_same_bits(dirichlet_partial_sum(s, n), want[s, n]) for s in points)


def _line_head(s: complex, cutoff_n: int) -> complex:
    # node 0 of a one-segment line walk from s
    return dirichlet_line(s, s + 1j, 1, cutoff_n)[0]


def test_partial_sum_is_bitwise_under_concurrent_growth(monkeypatch: pytest.MonkeyPatch) -> None:
    # four threads interleave growing cutoffs, so each growth races with reads
    # of the table and with other threads' growth; two grow it through the
    # partial sum, two through the line walk
    s = 0.5 + 499.0j
    plans = [range(2 + k, 800, 4) for k in range(4)]
    kernels = (dirichlet_partial_sum, _line_head)
    want = {n: _uncached_sum(s, n) for plan in plans for n in plan}
    got: list[dict[int, complex]] = [{} for _ in plans]
    start = threading.Barrier(len(plans), timeout=60)

    def work(k: int) -> None:
        start.wait()
        evaluate = kernels[k % len(kernels)]
        for n in plans[k]:
            got[k][n] = evaluate(s, n)

    _fresh_log_table(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, plan in enumerate(plans):
        assert sorted(got[k]) == list(plan)
        assert all(_same_bits(got[k][n], want[n]) for n in plan)


def test_bound_and_schedule_leave_the_log_table_alone(monkeypatch: pytest.MonkeyPatch) -> None:
    # a refused request sweeps every tail order and reports its best bound
    # at the largest cutoff, 64,128
    _fresh_log_table(monkeypatch)
    with pytest.raises(PrecisionError):
        auto_params(-40 + 499j, 1e-13)
    remainder_bound(0.5 + 499j, 64128, 25)
    assert len(zeta_core._LOGS) == 1


def test_cutoff_is_capped_before_the_table_grows() -> None:
    # the cap is the largest cutoff auto_params can pick, 64 times 2 (|t| + 1) at t = 500
    assert EvalParams(64_128, 4).cutoff_n == 64_128
    size = len(zeta_core._LOGS)
    with pytest.raises(ParameterError, match="64128"):
        EvalParams(64_129, 4)
    with pytest.raises(ParameterError, match="64128"):
        dirichlet_partial_sum(0.5 + 14j, 10**8)
    with pytest.raises(ParameterError, match="64128"):
        dirichlet_partial_sum(0.5 + 14j, 10**8, derivative=True)
    with pytest.raises(ParameterError, match="64128"):
        dirichlet_line(0.5 + 14j, 0.5 + 15j, 4, 10**8)
    assert len(zeta_core._LOGS) == size


def test_partial_sum_derivative_keeps_the_sum_bitwise() -> None:
    rng = random.Random(20152)
    for _ in range(100):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        n = rng.choice(_CUTOFFS)
        total, slope = dirichlet_partial_sum(s, n, derivative=True)
        assert _same_bits(total, dirichlet_partial_sum(s, n))
        want = -sum(math.log(k) * k ** -s for k in range(2, n))
        assert abs(slope - want) <= 1e-12 * sum(math.log(k) * k ** -s.real for k in range(2, n))


# ---------------------------------------------------------------------------
# line walks
# ---------------------------------------------------------------------------


def _assert_line_tracks_the_sum(start: complex, stop: complex, segments: int, cutoff_n: int) -> None:
    # every node within 1e-12 of the sum of |n^{-s_k}|, i.e. rounding level
    sums = dirichlet_line(start, stop, segments, cutoff_n)
    assert len(sums) == segments + 1
    step = (stop - start) / segments
    scale: dict[float, float] = {}
    for k, got in enumerate(sums):
        s = start + k * step
        if s.real not in scale:
            scale[s.real] = math.fsum(n ** -s.real for n in range(1, cutoff_n))
        assert abs(got - dirichlet_partial_sum(s, cutoff_n)) <= 1e-12 * scale[s.real], (start, stop, k)


def test_line_starts_on_the_partial_sum_bitwise() -> None:
    rng = random.Random(20156)
    for _ in range(40):
        start = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        stop = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        n = rng.choice(_CUTOFFS)
        assert _same_bits(dirichlet_line(start, stop, rng.randint(1, 5), n)[0], dirichlet_partial_sum(start, n))


@pytest.mark.parametrize("sigma", (0.01, 0.5, 0.99))
def test_vertical_line_tracks_the_partial_sum(sigma: float) -> None:
    _assert_line_tracks_the_sum(complex(sigma, 0.1), complex(sigma, 500.1), 2000, 1002)


def test_horizontal_and_descending_lines_track_the_partial_sum() -> None:
    rng = random.Random(20157)
    for n in (2, 3, 62, 1002):
        t = rng.uniform(0.0, 500.0)
        _assert_line_tracks_the_sum(complex(-1.0, t), complex(2.0, t), rng.randint(50, 300), n)
    _assert_line_tracks_the_sum(0.9 + 480.3j, 0.2 + 20.7j, 1840, 1002)


def test_line_segments_must_be_a_positive_integer() -> None:
    for segments in (0, -3, 2.0, None, True):
        with pytest.raises(ParameterError, match="segments"):
            dirichlet_line(0.5 + 14j, 0.5 + 15j, segments, 40)  # type: ignore[arg-type]
    with pytest.raises(ParameterError):
        dirichlet_line(float("nan"), 0.5 + 15j, 4, 40)


def test_the_node_kernel_keeps_the_bits_of_each_pass() -> None:
    # given each node's exact head, the kernel returns zeta_gb's value, and
    # with the heads' slopes its derivative, bit for bit
    rng = random.Random(20158)
    for _ in range(100):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        params = auto_params(s, rng.choice((1e-8, 1e-10, 1e-12)))
        n = params.cutoff_n
        nodes = [s + k * complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.5, 0.5)) for k in range(3)]
        values, slopes = zeta_core._zeta_nodes(nodes, [dirichlet_partial_sum(z, n) for z in nodes], params)
        assert slopes is None
        assert [_bits(v) for v in values] == [_bits(zeta_gb(z, params).value) for z in nodes]
        head, head_slope = dirichlet_partial_sum(s, n, derivative=True)
        (value,), (slope,) = zeta_core._zeta_nodes([s], [head], params, [head_slope])
        both = zeta_gb(s, params, derivative=True)
        assert _bits(value) == _bits(both.value) and _bits(slope) == _bits(both.derivative)
        # the bound is read from the function, bit for bit
        plain = zeta_gb(s, params)
        assert _bits(plain.remainder_bound) == _bits(remainder_bound(s, n, params.tail_order))


def test_zeta_gb_takes_no_partial_sum() -> None:
    # walked sums go to the node kernel; the evaluator always makes or
    # reads its own head
    s, params = 0.5 + 14j, EvalParams(40, 6)
    with pytest.raises(TypeError, match="partial_sum"):
        zeta_gb(s, params, partial_sum=dirichlet_partial_sum(s, 40))  # type: ignore[call-arg]


# Every node value of four walked lines, recorded as hex before the node
# kernel replaced the per-node evaluation, and again when the tail series
# was nested (17 of 64 values moved, by at most 1.7e-16 relative): the two
# vertical lines walk the scan grid and a strip rectangle's left side, the
# horizontal one that rectangle's bottom side, and the single node is a
# one-node walk (a phase-walk split or an off-grid t_max) at the corner of
# the supported box.
_WALK_PINS = (
    ([complex(0.5, 30 + 0.25 * k) for k in range(41)], EvalParams(20, 7), """
    -0x1.ee269b78abd76p-4 -0x1.2ad9932d264bap-1
    -0x1.78b341fe1bcd8p-4 -0x1.bdcdd8e4fb566p-3
    0x1.baeec3ae45c0ap-5 0x1.4603770a57509p-4
    0x1.1b54d04857b6ep-2 0x1.161c76258541ep-2
    0x1.0c72413c686f7p-1 0x1.5d8846bc347c3p-2
    0x1.7c7fc943ed0e5p-1 0x1.2d627e1903233p-2
    0x1.c5f0078c37386p-1 0x1.430e03b6ca9a3p-3
    0x1.d8d0e9d49f4cdp-1 -0x1.8860b2f7227bcp-6
    0x1.b039ed28e085dp-1 -0x1.92d58f2435854p-3
    0x1.53975ee463ecap-1 -0x1.39db98efff551p-2
    0x1.aba9e0ebd37d4p-2 -0x1.3cf68464d917ep-2
    0x1.49b66e671d14dp-3 -0x1.729805bd813ecp-3
    -0x1.73a52f572ee32p-5 0x1.445dc2ec04f75p-4
    -0x1.25e08c564383ep-3 0x1.c6e2dad8992f1p-2
    -0x1.7042091afb7d1p-4 0x1.ba477a8961292p-1
    0x1.14f820cfa4fd7p-3 0x1.45814666f20f7p+0
    0x1.0b97ba33b3d05p-1 0x1.98723a8f436eep+0
    0x1.0884c17f0846ep+0 0x1.c5765cbf5cce7p+0
    0x1.9a6724f317e64p+0 0x1.c104002692e3fp+0
    0x1.138ef2c646573p+1 0x1.86ed4460b3586p+0
    0x1.4cd80519457fep+1 0x1.1b982f7ee381cp+0
    0x1.700f594c856bfp+1 0x1.177d3cf4b4a94p-1
    0x1.7756bea8c616cp+1 -0x1.554155309f609p-4
    0x1.611b411deedbfp+1 -0x1.619566b5302efp-1
    0x1.30879bce69789p+1 -0x1.3015a64ed5accp+0
    0x1.da416c2fc17b7p+0 -0x1.80d857883b0fcp+0
    0x1.4328d3a6593d3p+0 -0x1.983b4e173fc93p+0
    0x1.67a90f56ab51bp-1 -0x1.74fd9146cb84ap+0
    0x1.0b34282b01ba0p-2 -0x1.1fd487a808902p+0
    0x1.050da9b54f908p-8 -0x1.53ee823856eb7p-1
    -0x1.28757d33f3beap-5 -0x1.50586922855c8p-3
    0x1.0fadcad595aacp-3 0x1.2016410777a8fp-2
    0x1.db653605c2ab3p-2 0x1.2f08295d33eb0p-1
    0x1.c3fb39047c1fep-1 0x1.6db3d4495f946p-1
    0x1.4c31ca46c0e9ap+0 0x1.444a0d3bbc779p-1
    0x1.9f10b46436696p+0 0x1.7fa2fa7240f56p-2
    0x1.c9759efa18886p+0 -0x1.51d2477652900p-10
    0x1.c2e8e80f7e719p+0 -0x1.a50836359b372p-2
    0x1.8d49d46b4eb77p+0 -0x1.886ad7d593f14p-1
    0x1.34529d8fa5398p+0 -0x1.fbd3b523bfa98p-1
    0x1.9609fcf3c04f0p-1 -0x1.0a90f910012cfp+0
"""),
    ([complex(0.01, 300) + 4j * (k / 16) for k in range(17)], EvalParams(91, 15), """
    -0x1.86d0f063be334p+1 0x1.aa15a31ef9b83p+2
    0x1.195bcccbf242fp+2 0x1.b7b09ceb4e6c3p+2
    0x1.189cde3e84115p+3 0x1.276a10d554318p+0
    0x1.b2cda2a90de18p+2 -0x1.6041081969b6ep+2
    0x1.1c03603b6096bp-1 -0x1.f02a6153c43d9p+2
    -0x1.262b3a4622cfep+2 -0x1.11fcd7912649bp+2
    -0x1.2e316cdbf9f03p+2 0x1.6709705c897acp+0
    -0x1.01f06137b25aep-1 0x1.13069225af1fep+2
    0x1.d745cbb8aac0dp+1 0x1.289691f3c66fap+1
    0x1.ec75f0dab49c7p+1 -0x1.07adad6f86023p+1
    -0x1.44f54a8f8dd50p-5 -0x1.0ea8d451ba80bp+2
    -0x1.07a580fb3d246p+2 -0x1.b7f604a43afeep+0
    -0x1.0ca38f3e52627p+2 0x1.c45b6630d6dcbp+1
    0x1.a6580119a973bp-2 0x1.b8a63985948fbp+2
    0x1.8b6cfa2833a5ap+2 0x1.47bd51acef5dfp+2
    0x1.0c9b172d5a055p+3 -0x1.4f18e0ffb3a6dp-1
    0x1.5121a2c8a1852p+2 -0x1.7bbecc803e5a6p+2
"""),
    ([complex(0.01, 300) + 0.98 * (k / 4) for k in range(5)], EvalParams(91, 15), """
    -0x1.86d0f063be334p+1 0x1.aa15a31ef9b83p+2
    -0x1.243bce8188a78p-1 0x1.23bbd853aba32p+1
    0x1.e8ea23c163deep-2 0x1.373ef2cbbc182p-1
    0x1.d28f0f1258546p-1 -0x1.698e82b4379e4p-8
    0x1.14f45bbacda86p+0 -0x1.aaf3a7aeea0adp-3
"""),
    ([complex(-1, 499)], EvalParams(138, 22), """
    0x1.2cd2b8990cc39p+9 0x1.57684ee3579abp+9
"""),
)


def _walked(nodes: list[complex], params: EvalParams) -> list[complex]:
    # the values the node kernel finishes from a walk's Dirichlet sums: one
    # line walk, or the exact pass for a single node
    if len(nodes) > 1:
        heads = dirichlet_line(nodes[0], nodes[-1], len(nodes) - 1, params.cutoff_n)
    else:
        heads = [dirichlet_partial_sum(nodes[0], params.cutoff_n)]
    values, slopes = zeta_core._zeta_nodes(nodes, heads, params)
    assert slopes is None
    return values


@pytest.mark.parametrize(("nodes", "params", "pins"), _WALK_PINS, ids=("grid", "left", "bottom", "single"))
def test_walked_values_keep_their_bits(nodes: list[complex], params: EvalParams, pins: str) -> None:
    want = [complex(*map(float.fromhex, line.split())) for line in pins.strip().splitlines()]
    assert len(want) == len(nodes)
    assert list(map(_bits, _walked(nodes, params))) == list(map(_bits, want))


def test_walked_values_keep_their_errors() -> None:
    # a node that overflows, and a tail order too small at the line's
    # smallest Re s, keep the evaluator's messages
    with pytest.raises(ParameterError) as overflowed:
        _walked([complex(0.5, 1e200)], EvalParams(16, 4))
    assert str(overflowed.value) == "evaluation overflowed at s = (0.5+1e+200j) with cutoff 16"
    line = [complex(-10.0 + k, 5.0) for k in range(7)]
    with pytest.raises(ParameterError) as refused:
        _walked(line, EvalParams(16, 2))
    assert str(refused.value) == str(pytest.raises(ParameterError, remainder_bound, line[0], 16, 2).value)
    assert str(refused.value).startswith("tail order 2 too small for Re(s) = -10.0")


# (N, nu) the schedule picks, then the value and bound of zeta_gb with
# auto_params, at 12 seeded points of [-1, 2] x [0, 500] and eps 1e-8,
# 1e-10 and 1e-12 in turn; recorded as float.hex, so that a change that
# claims the same bits can show them. Nesting the tail series moved 11 of
# the 36 values by at most 1.6e-16 relative, and no (N, nu) or bound.
_EVAL_PINS = """
    112 18 0x1.0a8b00f93f261p+2 -0x1.bd60c293675f1p+2 0x1.12ec9131c9e01p-27
    118 20 0x1.0a8b00f920463p+2 -0x1.bd60c2949060dp+2 0x1.9f9aa20fac5f3p-34
    117 24 0x1.0a8b00f91ebb2p+2 -0x1.bd60c2948cfcdp+2 0x1.128039f5922dep-40
    34 10 0x1.5fb5adc7f6e3ep+5 -0x1.d9216923b48d8p+0 0x1.f65d0f258181ap-28
    38 11 0x1.5fb5adc7add35p+5 -0x1.d9216921d7658p+0 0x1.43bccd5a4b702p-34
    38 13 0x1.5fb5adc7ae854p+5 -0x1.d9216921cb5d0p+0 0x1.898e5a225368ap-41
    87 15 -0x1.7feaf465f9f0cp-2 0x1.1595ddfaaf211p+5 0x1.2cdbdf804d1d7p-27
    88 18 -0x1.7feaf46241fc8p-2 0x1.1595ddfa83332p+5 0x1.9203c8b13eefcp-34
    92 20 -0x1.7feaf4621a606p-2 0x1.1595ddfa83a51p+5 0x1.0402c7d4b5653p-40
    60 10 0x1.386ddafe9aa05p-1 0x1.0883cfec7a691p-2 0x1.3ceee77e411b8p-27
    64 12 0x1.386ddaf2f301fp-1 0x1.0883cfe5b83f8p-2 0x1.895c645c860c6p-34
    67 14 0x1.386ddaf2d1db4p-1 0x1.0883cfe5a2984p-2 0x1.09923d0ca9f63p-40
    35 9 -0x1.ac8ab0b1d3dd9p+1 0x1.78efe1ac48a71p+0 0x1.28a5283a72a05p-27
    36 11 -0x1.ac8ab0ad555b4p+1 0x1.78efe1b0899e4p+0 0x1.2569c1dcd5924p-34
    36 13 -0x1.ac8ab0ad5ffd8p+1 0x1.78efe1b080ff4p+0 0x1.0cfc482cc71fbp-40
    110 16 0x1.7c565d1067ef0p+0 -0x1.1d21988d4ebc0p+0 0x1.47174b355295bp-27
    118 18 0x1.7c565d148a869p+0 -0x1.1d219890606e8p+0 0x1.82cf9070c60d7p-34
    121 21 0x1.7c565d14958e9p+0 -0x1.1d2198905a4c0p+0 0x1.092eef970be0ep-40
    59 10 0x1.52608252ecd29p+0 0x1.2c022e637ad84p-2 0x1.2bca77e1c6dcbp-27
    63 12 0x1.5260824d32e3bp+0 0x1.2c022e5f5b13dp-2 0x1.92a21af7c1921p-34
    63 15 0x1.5260824d215dbp+0 0x1.2c022e5f64724p-2 0x1.09e993402d687p-40
    117 14 0x1.448b256c920bbp-1 -0x1.6eb18c7996f86p-2 0x1.423e5791dcc1ap-27
    123 17 0x1.448b256950c69p-1 -0x1.6eb18c6979fe9p-2 0x1.6c9bd16494632p-34
    127 20 0x1.448b25693b222p-1 -0x1.6eb18c69856d3p-2 0x1.f6b0416f5f065p-41
    87 15 0x1.e052651fd4cb4p-1 -0x1.08b7f5f79e405p-2 0x1.4ac11b6316778p-27
    93 17 0x1.e052651a4297fp-1 -0x1.08b7f60da9112p-2 0x1.9a9f3babc4354p-34
    98 19 0x1.e052651a46e42p-1 -0x1.08b7f60d6943bp-2 0x1.0cb1ffec9ac09p-40
    106 16 0x1.10cb558b65585p+1 -0x1.00d6407d3a7f8p-1 0x1.493b7127fca6bp-27
    106 20 0x1.10cb558dfec1fp+1 -0x1.00d6407be8d84p-1 0x1.af4bd47c34a6bp-34
    115 21 0x1.10cb558e055abp+1 -0x1.00d6407bfde6cp-1 0x1.02f458c979ccep-40
    67 12 0x1.3194b74230451p-3 0x1.12865b84d7bd5p+1 0x1.4651dc7ad3aa3p-27
    67 15 0x1.3194b77630581p-3 0x1.12865b84cb797p+1 0x1.7bdc49baff6dbp-34
    70 17 0x1.3194b77691884p-3 0x1.12865b84c442fp+1 0x1.d838e28d8110dp-41
    8 4 0x1.283cbc3a35975p+0 0x1.ce9b63f553f34p-3 0x1.51fbb0e400e32p-27
    13 4 0x1.283cbc4900c33p+0 0x1.ce9b630a2e7bcp-3 0x1.24b1ebfe88978p-34
    14 5 0x1.283cbc490b282p+0 0x1.ce9b630bf7282p-3 0x1.7c94a766d9249p-41
"""
# value and slope at 0.5 + 14.1i, eps 1e-10
_DERIVATIVE_PIN = (
    "0x1.33ea1344b240cp-8",
    "-0x1.bb52a96ec3dd0p-6",
    "0x1.8cd190ab2f12ep-1",
    "0x1.2aadfea15bbdbp-3",
)
# the refined first zero, then em_tail and Q there
_ZERO_PIN = (
    "0x1.ffffffff207f5p-2",
    "0x1.c44fab19b190bp+3",
    "0x1.47cbece2a938ep-7",
    "0x1.da270e7ae9dcfp-11",
    "0x1.9014b67ee39f9p+7",
    "0x1.8b7402c365f2ep-30",
)


def test_evaluations_keep_their_bits() -> None:
    rng = random.Random(20160)
    points = [complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0)) for _ in range(12)]
    cases = [(s, eps) for s in points for eps in (1e-8, 1e-10, 1e-12)]
    rows = _EVAL_PINS.strip().splitlines()
    assert len(rows) == len(cases)
    for (s, eps), row in zip(cases, rows):
        params = zeta_core._schedule(s, eps)
        result = zeta_gb(s, eps=eps)
        assert result.params_used == params
        assert params._picked_at == (s, result.remainder_bound)
        got = (str(params.cutoff_n), str(params.tail_order), result.value.real.hex(),
               result.value.imag.hex(), result.remainder_bound.hex())
        assert got == tuple(row.split()), s
    result = zeta_gb(0.5 + 14.1j, eps=1e-10, derivative=True)
    assert tuple(x.hex() for x in (result.value.real, result.value.imag, result.derivative.real,
                                   result.derivative.imag)) == _DERIVATIVE_PIN
    rec = refine_zero(0.5 + 14.1j)
    tail, q = em_tail(rec.s, rec.params_used), q_gb(rec.s, rec.params_used)
    assert q == rec.q_value
    assert tuple(x.hex() for x in (rec.s.real, rec.s.imag, tail.real, tail.imag, q.real, q.imag)) == _ZERO_PIN


# ---------------------------------------------------------------------------
# the head memo
# ---------------------------------------------------------------------------


def _bits(z: complex) -> bytes:
    # unlike ==, tells -0.0 from 0.0
    return struct.pack("<dd", z.real, z.imag)


def test_warm_heads_keep_the_bits_of_a_fresh_pass(monkeypatch: pytest.MonkeyPatch) -> None:
    rng = random.Random(20159)
    cases = [
        (complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0)), EvalParams(rng.randint(2, 1000), 4))
        for _ in range(200)
    ]
    cold = [(zeta_gb(s, p).value, q_gb(s, p)) for s, p in cases]
    fresh = [dirichlet_partial_sum(s, p.cutoff_n) for s, p in cases]
    partial_sum = zeta_core.dirichlet_partial_sum

    def no_pass(*args, **kwargs):
        raise AssertionError("a warm head made a pass")

    # Q reads the head its cold call kept
    monkeypatch.setattr(zeta_core, "dirichlet_partial_sum", no_pass)
    for (s, p), head, (_, before) in zip(cases, fresh, cold):
        assert _bits(zeta_core._head(s, p.cutoff_n)) == _bits(head)
        assert _bits(q_gb(s, p)) == _bits(before)
    # a plain evaluation reads no head: it makes its own pass, with the same bits
    passes = []
    monkeypatch.setattr(zeta_core, "dirichlet_partial_sum",
                        lambda s, n, **kwargs: passes.append((s, n)) or partial_sum(s, n, **kwargs))
    for (s, p), (before, _) in zip(cases, cold):
        assert _bits(zeta_gb(s, p).value) == _bits(before)
    assert passes == [(s, p.cutoff_n) for s, p in cases]


def test_signed_zero_keys_hold_the_same_bits() -> None:
    for a, b in ((2 + 0j, complex(2.0, -0.0)), (complex(-0.0, 14.0), complex(0.0, 14.0))):
        assert a == b and hash(a) == hash(b)  # one key in the memo
        for n in (2, 3, 40, 1000):
            heads = [dirichlet_partial_sum(z, n) for z in (a, b)]
            heads += [dirichlet_partial_sum(z, n, derivative=True)[0] for z in (a, b)]
            assert len(set(map(_bits, heads))) == 1, (a, b, n)


def test_only_the_polish_pass_hands_its_head_to_q(record_call_stacks) -> None:
    calls = record_call_stacks(("dirichlet_partial_sum",))
    s, params = 0.5 + 14.134725j, EvalParams(40, 6)
    # plain and derivative evaluations neither read nor write the memo
    zeta_gb(s, params)
    zeta_gb(s, params, derivative=True)
    zeta_gb(s, params)
    assert not zeta_core._HEADS
    assert len(calls) == 3
    # the polish's value-only pass keeps its head, and Q there reads it
    zeta_core._value(s, params)
    q_gb(s, params)
    assert list(zeta_core._HEADS) == [(s, params.cutoff_n)]
    assert len(calls) == 4


def test_the_memo_keeps_its_bound() -> None:
    bound = zeta_core._HEAD_MEMO_SIZE
    keys = [(complex(0.5, k / 8), 3) for k in range(3 * bound)]
    for s, n in keys:
        zeta_core._head(s, n)
        assert len(zeta_core._HEADS) <= bound
    # the oldest go first
    assert list(zeta_core._HEADS) == list(zeta_core._HEAD_KEYS) == keys[-bound:]


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------


def _strip_points(seed: int, count: int) -> list[complex]:
    rng = random.Random(seed)
    return [complex(rng.uniform(0.01, 0.99), rng.uniform(1.0, 499.0)) for _ in range(count)]


def test_derivative_matches_mpmath() -> None:
    worst = 0.0
    for s in _strip_points(20153, 100):
        got = zeta_gb(s, auto_params(s, 1e-10), derivative=True).derivative
        want = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), derivative=1))
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-8


def test_derivative_keeps_the_value_bitwise() -> None:
    rng = random.Random(20154)
    points = _strip_points(20155, 50) + [
        complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0)) for _ in range(150)
    ]
    for s in points:
        params = auto_params(s, rng.choice((1e-8, 1e-10, 1e-12)))
        plain = zeta_gb(s, params)
        both = zeta_gb(s, params, derivative=True)
        assert _same_bits(both.value, plain.value)
        assert both.remainder_bound == plain.remainder_bound
        assert _bits(both.remainder_bound) == _bits(remainder_bound(s, params.cutoff_n, params.tail_order))
        assert plain.derivative is None
    assert zeta_gb(2).derivative is None


def test_derivative_at_classical_points() -> None:
    # zeta'(0) = -ln(2 pi)/2; zeta'(2) = pi^2/6 (gamma + ln(2 pi) - 12 ln A)
    params = EvalParams(50, 10)
    assert zeta_gb(0, params, derivative=True).derivative == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12
    )
    assert zeta_gb(2, params, derivative=True).derivative == pytest.approx(
        -0.9375482543158437, abs=1e-12
    )


def test_classical_values() -> None:
    params = EvalParams(50, 10)
    assert zeta_gb(2, params).value.real == pytest.approx(PI2_OVER_6, abs=1e-10)
    assert zeta_gb(0, params).value.real == pytest.approx(-0.5, abs=1e-10)
    assert zeta_gb(-1, params).value.real == pytest.approx(-1.0 / 12.0, abs=1e-9)


def test_trivial_zeros_within_certified_bound() -> None:
    # the correction series terminates at negative even integers, so the
    # truncation bound is 0 there; what remains is cancellation noise on
    # the scale of the largest partial-sum term, N^(1-s)/(1-s)
    params = EvalParams(50, 10)
    for s in (-2, -4):
        result = zeta_gb(s, params)
        rounding = 1e-14 * params.cutoff_n ** (1 - s) / (1 - s)
        assert result.remainder_bound == 0.0
        assert abs(result.value) <= rounding


def test_matches_independent_transcription() -> None:
    params = EvalParams(200, 15)
    for s in (2 + 0j, 0.5 + 14.1j, -0.5 + 3j, 0.25 + 30j):
        ours = zeta_gb(s, params).value
        ref = oracles.gb_eval(s, cutoff=200, order=15)
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))


def test_agrees_with_direct_series_where_it_converges() -> None:
    # tolerance adds the direct sum's own integral tail M^(1-sigma)/(sigma-1)
    terms = 10**5
    for s in (2 + 0j, 2.5 + 7j, 4 + 0j, 6.5 - 3j):
        result = zeta_gb(s, eps=1e-10)
        direct = oracles.direct_series(s, terms)
        allowance = terms ** (1.0 - s.real) / (s.real - 1.0)
        assert abs(result.value - direct) <= result.remainder_bound + allowance + 1e-12


def test_pole_is_rejected() -> None:
    with pytest.raises(PoleError):
        zeta_gb(1)
    with pytest.raises(PoleError):
        zeta_gb(1 + 0j, EvalParams(50, 10))


def test_pole_approach_matches_laurent_expansion() -> None:
    # zeta(1 + h) = 1/h + gamma + O(h)
    for h in (1e-3, 1e-5):
        value = zeta_gb(1 + h, eps=1e-10).value.real
        assert abs(value - 1.0 / h - EULER_GAMMA) <= 0.8 * h + 1e-7


def test_input_validation() -> None:
    with pytest.raises(ParameterError):
        zeta_gb("two")  # type: ignore[arg-type]
    with pytest.raises(ParameterError):
        zeta_gb(complex(float("inf"), 0))
    # bool is an int subclass, but no accuracy: it picked EvalParams(2, 2)
    with pytest.raises(ParameterError, match="eps must be"):
        auto_params(0.5 + 10j, True)
    # a pair is no EvalParams: it raised AttributeError
    for evaluate in (zeta_gb, em_tail):
        with pytest.raises(ParameterError, match="EvalParams"):
            evaluate(0.5 + 10j, (30, 5))  # type: ignore[arg-type]
    # the bound takes the (N, nu) that EvalParams takes: it returned 0.034 for
    # nu = 0, 2.97e-5 for nu = True and 22.7 for N = 1, accepted N = 30.5, and
    # raised IndexError for nu = 30
    assert remainder_bound(0.5 + 10j, 30, 5) > 0
    for n, nu in ((30, 0), (30, True), (1, 5), (True, 5), (30.5, 5), (30, 30), (64_129, 5), (30, 2.0)):
        with pytest.raises(ParameterError):
            EvalParams(n, nu)
        with pytest.raises(ParameterError):
            remainder_bound(0.5 + 10j, n, nu)


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(min_value=-2.0, max_value=3.0),
    t=st.floats(min_value=0.05, max_value=50.0),
)
def test_conjugation_symmetry(sigma: float, t: float) -> None:
    params = EvalParams(32, 6)
    upper = zeta_gb(complex(sigma, t), params).value
    lower = zeta_gb(complex(sigma, -t), params).value
    assert abs(lower - upper.conjugate()) <= 1e-14 * (1.0 + abs(upper))


# ---------------------------------------------------------------------------
# remainder bound and abbreviated tail
# ---------------------------------------------------------------------------


def test_bound_vanishes_when_rising_product_does() -> None:
    assert remainder_bound(0 + 0j, 16, 2) == 0.0
    assert remainder_bound(-1 + 0j, 16, 2) == 0.0


def test_bound_decreases_with_cutoff() -> None:
    s = 0.5 + 20j
    assert remainder_bound(s, 64, 6) < remainder_bound(s, 32, 6)


def test_bound_rejects_too_negative_real_part() -> None:
    with pytest.raises(ParameterError):
        remainder_bound(-10 + 0j, 16, 2)


def test_the_bound_is_computed_on_its_first_read(record_call_stacks) -> None:
    s, params = 0.5 + 100j, EvalParams(212, 9)
    calls = record_call_stacks(("remainder_bound",))
    result = zeta_gb(s, params)
    assert calls == []
    first = result.remainder_bound
    again = result.remainder_bound
    assert len(calls) == 1
    assert _bits(again) == _bits(first) == _bits(remainder_bound(s, 212, 9))
    # the kept bound is no field: it shows in neither repr nor equality
    assert "_bound" not in repr(result) and result == zeta_gb(s, params)


def test_a_scheduled_result_reads_the_schedules_bound(record_call_stacks) -> None:
    # the schedule computes the winner's bound at s to certify it; the
    # result at s keeps those bits instead of computing them again
    rng = random.Random(20161)
    calls = record_call_stacks(("remainder_bound",))
    for _ in range(50):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        calls.clear()
        result = zeta_gb(s, eps=1e-10)
        bound = result.remainder_bound
        assert len(calls) == 1
        params = result.params_used
        assert _bits(bound) == _bits(remainder_bound(s, params.cutoff_n, params.tail_order))
        # the same params at another point compute that point's own bound
        other = s + 0.25j
        assert _bits(zeta_gb(other, params).remainder_bound) == _bits(
            remainder_bound(other, params.cutoff_n, params.tail_order))
    # the carried bound is no field: equality and repr ignore it
    picked = auto_params(0.5 + 14j, 1e-10)
    plain = EvalParams(picked.cutoff_n, picked.tail_order)
    assert picked == plain and hash(picked) == hash(plain) and repr(picked) == repr(plain)


def test_the_coefficient_table_is_built_on_first_use() -> None:
    code = ("import zetagb, zetagb.zeta_core as z; before = z._coeffs.cache_info().currsize; "
            "z.zeta_gb(0.5 + 14j); print(before, z._coeffs.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0", "1"]


def test_evaluation_refuses_a_too_small_tail_order_unread() -> None:
    # the bound is computed on read, but the evaluation itself still refuses
    # the order, with the bound's message and without reading the bound
    with pytest.raises(ParameterError) as bound_error:
        remainder_bound(-10 + 0j, 16, 2)
    with pytest.raises(ParameterError) as eval_error:
        zeta_gb(-10, EvalParams(16, 2))
    assert str(eval_error.value) == str(bound_error.value)
    assert str(eval_error.value).startswith("tail order 2 too small for Re(s) = -10.0")
    assert zeta_gb(-4.9, EvalParams(16, 2)).remainder_bound > 0


def test_tail_reassembles_the_evaluator() -> None:
    for s in (2 + 0j, 0.5 + 14.1j, -0.5 + 3j):
        params = EvalParams(32, 6)
        r = em_tail(s, params)
        n = params.cutoff_n
        rebuilt = (
            dirichlet_partial_sum(s, n)
            + n ** (1 - s) / (s - 1)
            + s * r
        )
        direct = zeta_gb(s, params)
        assert abs(rebuilt - direct.value) <= 1e-13 * max(1.0, abs(direct.value))


def test_tail_rejects_origin_and_short_tables() -> None:
    with pytest.raises(ParameterError):
        em_tail(0 + 0j, EvalParams(16, 2))
    # the bound after nu = 30 terms needs B_62, beyond the table cap
    with pytest.raises(ParameterError, match="tail_order"):
        EvalParams(16, 30)


def _finite_sum_cases(seed: int, count: int) -> list[tuple[complex, int, int]]:
    # (s, N, nu) with Re s in [-1, 2], 0 <= t <= 500, N in 2..200 and nu in
    # 1..25, away from s = 0 (r divides by s) and the pole
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        if abs(s) > 0.1 and abs(s - 1) > 0.1:
            cases.append((s, rng.randint(2, 200), rng.randint(1, 25)))
    return cases


def _mp_tail_terms(s: mpmath.mpc, n: int, nu: int) -> list[mpmath.mpc]:
    # the terms of r(N, s): N^{-s}/(2s), then B_{2mu}/(2mu)! (s+1)...(s+2mu-2) N^{-s-2mu+1}
    big_n = mpmath.mpf(n)
    terms = [big_n ** -s / (2 * s)]
    rising = mpmath.mpf(1)
    for mu in range(1, nu + 1):
        if mu > 1:
            rising *= (s + 2 * mu - 3) * (s + 2 * mu - 2)
        terms.append(mpmath.bernoulli(2 * mu) / mpmath.factorial(2 * mu) * rising * big_n ** (-s - 2 * mu + 1))
    return terms


def _finite_sum_tolerance(s: complex, n: int) -> float:
    # 1e-13 for the arithmetic, plus the rounding that exp's argument
    # carries at large |s|: ln N is rounded, so N^{-s} has a phase error
    # near |s| ln N u (2.6e-13 at t = 500, N = 82, before and after the
    # series was nested)
    return 1e-13 + 2.0 * abs(s) * math.log(n) * 2.0 ** -53


def test_tail_matches_mpmath_on_the_same_finite_sum() -> None:
    # the nested series against the expanded one at 30 digits, relative to
    # the sum of the terms' moduli, which bounds what cancellation leaves
    worst = 0.0
    with mpmath.workdps(30):
        for s, n, nu in _finite_sum_cases(21001, 200):
            terms = _mp_tail_terms(mpmath.mpc(s.real, s.imag), n, nu)
            got = em_tail(s, EvalParams(n, nu))
            err = abs(got - mpmath.fsum(terms)) / mpmath.fsum(map(abs, terms))
            worst = max(worst, float(err) / _finite_sum_tolerance(s, n))
    assert worst <= 1.0


def test_derivative_matches_mpmath_on_the_same_finite_sum() -> None:
    # the slope zeta_gb returns is the derivative of the finite sum it
    # evaluates: mpmath differentiates that sum at 30 digits, and the scale
    # is the sum of the moduli of its expanded derivative's terms
    worst = 0.0
    with mpmath.workdps(30):
        for s, n, nu in _finite_sum_cases(21002, 40):
            big_n = mpmath.mpf(n)

            def finite_sum(z):
                # N^{-s}/2 + the tail is s r(N, s)
                return (mpmath.fsum(mpmath.mpf(k) ** -z for k in range(1, n)) + big_n ** (1 - z) / (z - 1)
                        + z * mpmath.fsum(_mp_tail_terms(z, n, nu)))

            z = mpmath.mpc(s.real, s.imag)
            log_n = mpmath.log(big_n)
            scale = mpmath.fsum(mpmath.log(k) * abs(mpmath.mpf(k) ** -z) for k in range(2, n))
            scale += abs(big_n ** (1 - z) / (z - 1)) * (log_n + abs(1 / (z - 1))) + log_n * abs(big_n ** -z) / 2
            prod, dprod = z, mpmath.mpf(1)
            for mu in range(1, nu + 1):
                if mu > 1:
                    a, b = z + 2 * mu - 3, z + 2 * mu - 2
                    prod, dprod = prod * a * b, dprod * a * b + prod * (a + b)
                c = abs(mpmath.bernoulli(2 * mu) / mpmath.factorial(2 * mu) * big_n ** (-z - 2 * mu + 1))
                scale += c * (abs(dprod) + log_n * abs(prod))
            got = zeta_gb(s, EvalParams(n, nu), derivative=True).derivative
            err = abs(got - mpmath.diff(finite_sum, z)) / scale
            worst = max(worst, float(err) / _finite_sum_tolerance(s, n))
    assert worst <= 1.0


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------


def test_auto_params_examples() -> None:
    # the cheapest (N, nu) by N + 3 nu; the first fit from N = 2 (|t| + 1)
    # took (16, 2), (16, 3) and (202, 3)
    assert auto_params(2 + 0j, 1e-10) == EvalParams(9, 3)
    assert auto_params(2 + 0j, 1e-12) == EvalParams(10, 4)
    picked = auto_params(0.5 + 100j, 1e-8)
    assert (picked.cutoff_n, picked.tail_order) == (40, 9)
    assert remainder_bound(0.5 + 100j, picked.cutoff_n, picked.tail_order) <= 1e-8
    # the bound vanishes where a factor |s + k| does: the least cutoff serves
    assert auto_params(-1 + 0j, 1e-8) == EvalParams(2, 2)


def test_auto_params_picks_the_cheapest_certified_pair() -> None:
    # every pair (N, nu) with N in 2..2000 and nu in 2..25 that costs less
    # than the choice leaves the bound above eps
    for sigma in (-1.0, 0.5, 2.0):
        for t in (0.0, 14.0, 100.0, 250.0, 499.0):
            for eps in (1e-8, 1e-10, 1e-12):
                s = complex(sigma, t)
                picked = auto_params(s, eps)
                assert picked.cutoff_n <= 2000
                assert remainder_bound(s, picked.cutoff_n, picked.tail_order) <= eps
                cost = picked.cutoff_n + 3 * picked.tail_order
                for nu in range(2, 26):
                    for n in range(2, min(2001, cost - 3 * nu)):
                        assert remainder_bound(s, n, nu) > eps, (s, eps, n, nu)


def _first_fit(s: complex, eps: float) -> tuple[int, int] | None:
    # the schedule the cost rule replaced: N from max(16, ceil(2 (|t| + 1)))
    # doubling up to 2^6 times, nu sweeping 2..25 at each N, the first fit
    base = max(16, math.ceil(2.0 * (abs(s.imag) + 1.0)))
    for doubling in range(7):
        for nu in range(2, 26):
            if s.real + 2 * nu + 1 > 0 and remainder_bound(s, base << doubling, nu) <= eps:
                return base << doubling, nu
    return None


def test_no_request_the_first_fit_accepted_is_refused() -> None:
    # points of the benchmark's evaluation box: sigma in [-1, 2], t in [0, 500]
    rng = random.Random(20160)
    for _ in range(300):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 500.0))
        eps = rng.choice((1e-8, 1e-10, 1e-12))
        old = _first_fit(s, eps)
        if old is not None:
            picked = auto_params(s, eps)  # a refusal raises PrecisionError
            assert picked.cutoff_n + 3 * picked.tail_order <= old[0] + 3 * old[1]


def test_auto_params_certifies_its_choice() -> None:
    for s, eps in ((0.5 + 14.1j, 1e-9), (-1.5 + 30j, 1e-8), (3 + 0j, 1e-11)):
        p = auto_params(s, eps)
        assert remainder_bound(s, p.cutoff_n, p.tail_order) <= eps


def test_auto_params_refuses_sub_rounding_accuracy() -> None:
    with pytest.raises(PrecisionError):
        auto_params(2 + 0j, 1e-14)


def test_auto_params_caps_the_ordinate() -> None:
    with pytest.raises(ParameterError):
        auto_params(0.5 + 600j, 1e-8)
    with pytest.raises(ParameterError):
        auto_params(2 + 0j, -1e-8)


def test_eval_params_validation() -> None:
    with pytest.raises(ParameterError):
        EvalParams(1, 2)
    with pytest.raises(ParameterError):
        EvalParams(16, 0)
    # bool is an int subclass, but a record refined with True could not be read back
    for bad in ((True, 2), (40, True)):
        with pytest.raises(ParameterError):
            EvalParams(*bad)
    assert EvalParams(16, 29).tail_order == 29  # its bound reads B_60, the last entry
    for nu in (30, 31):  # Bernoulli indices beyond the table cap
        with pytest.raises(ParameterError, match="tail_order"):
            EvalParams(16, nu)


def test_default_eps_is_used_when_params_omitted() -> None:
    result = zeta_gb(2)
    assert result.params_used == auto_params(2, DEFAULT_TARGET_EPS)
    assert result.remainder_bound <= DEFAULT_TARGET_EPS
