"""Update rules, schedules, mask preservation, and the convergence bound."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_quadratic_sgd
from sparselab.analysis import convergence_bound
from sparselab.exceptions import ConfigError, NumericOverflow
from sparselab.models import ModelSpec, build_model
from sparselab.optim import (OptimizerConfig, OptimizerState, ScheduleSpec, StackedConfig,
                             apply_update, schedule_eta, step)


def test_constant_schedule_returns_eta_bar():
    spec = ScheduleSpec("constant")
    for k in (1, 7, 40000):
        assert schedule_eta(spec, 0.3, k) == 0.3


def test_linear_decay_values():
    spec = ScheduleSpec("linear-decay", decay_horizon=100)
    assert schedule_eta(spec, 1.0, 0) == pytest.approx(0.99)   # k=0 acts as k=1
    assert schedule_eta(spec, 1.0, 1) == pytest.approx(0.99)
    assert schedule_eta(spec, 2.0, 50) == pytest.approx(1.0)
    floored = ScheduleSpec("linear-decay", decay_horizon=100, floor_fraction=0.01)
    for k in (100, 150, 10**6):
        assert schedule_eta(floored, 1.0, k) == pytest.approx(0.01)


@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_linear_decay_is_non_increasing(horizon, floor, eta_bar):
    spec = ScheduleSpec("linear-decay", decay_horizon=horizon, floor_fraction=floor)
    rates = [schedule_eta(spec, eta_bar, k) for k in range(1, 2 * horizon + 2)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(r >= 0 for r in rates)


def test_single_sgd_step_arithmetic():
    params = np.array([1.0, 1.0])
    grad = np.array([2.0, -1.0])
    state = OptimizerState.fresh(2)
    apply_update(params, grad, OptimizerConfig("sgd", 0.1), state)
    np.testing.assert_allclose(params, [0.8, 1.1], rtol=1e-15)
    assert state.k == 1


def test_momentum_with_zero_coefficient_equals_sgd():
    rng = np.random.default_rng(0)
    w_sgd = rng.normal(size=20)
    w_mom = w_sgd.copy()
    s_sgd = OptimizerState.fresh(20)
    s_mom = OptimizerState.fresh(20)
    c_sgd = OptimizerConfig("sgd", 0.05)
    c_mom = OptimizerConfig("momentum", 0.05, momentum_coeff=0.0)
    for i in range(100):
        g = np.random.default_rng(100 + i).normal(size=20)
        apply_update(w_sgd, g, c_sgd, s_sgd)
        apply_update(w_mom, g, c_mom, s_mom)
    assert np.array_equal(w_sgd, w_mom)


def test_momentum_and_nesterov_match_hand_iterated_recurrence():
    # 1-D quadratic f(w) = lam/2 w^2, plain-float recurrences iterated by hand.
    lam, eta, m = 3.0, 0.05, 0.9
    w_mom_ref, v = 1.0, 0.0
    w_nes_ref, u = 1.0, 0.0
    mom_traj, nes_traj = [], []
    for _ in range(10):
        g = lam * w_mom_ref
        v = m * v + g
        w_mom_ref = w_mom_ref - eta * v
        mom_traj.append(w_mom_ref)
        g = lam * w_nes_ref
        u = m * u + g
        w_nes_ref = w_nes_ref - eta * (g + m * u)
        nes_traj.append(w_nes_ref)
    assert mom_traj != nes_traj

    for algo, ref in (("momentum", mom_traj), ("nesterov", nes_traj)):
        w = np.array([1.0])
        state = OptimizerState.fresh(1)
        config = OptimizerConfig(algo, eta, momentum_coeff=m)
        got = []
        for _ in range(10):
            apply_update(w, lam * w.copy(), config, state)
            got.append(float(w[0]))
        np.testing.assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("algo", ["sgd", "momentum", "nesterov"])
def test_mask_preserved_over_many_steps(algo):
    rng = np.random.default_rng(3)
    m = 50
    params = rng.normal(size=m)
    mask = (rng.random(m) > 0.4).astype(float)
    params *= mask
    config = OptimizerConfig(algo, 0.02, momentum_coeff=0.8)
    state = OptimizerState.fresh(m)
    for i in range(200):
        grad = np.random.default_rng(i).normal(size=m) * mask
        apply_update(params, grad, config, state)
    assert np.max(np.abs(params * (1.0 - mask))) == 0.0
    assert np.all(state.velocity[mask == 0.0] == 0.0)


SCHEDULES = {"constant": ScheduleSpec("constant"),
             "linear-decay": ScheduleSpec("linear-decay", decay_horizon=6, floor_fraction=0.1)}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("algo", ["sgd", "momentum", "nesterov"])
def test_each_row_of_a_stack_steps_as_that_row_alone(algo, schedule):
    # eight steps (past the decay horizon, into the floor); after the fourth
    # the middle row leaves and the rule is rebuilt from the two that remain
    configs = [OptimizerConfig(algo, eta, mu, SCHEDULES[schedule])
               for eta, mu in [(0.05, 0.9), (0.3, 0.5), (0.01, 0.2)]]
    rng = np.random.default_rng(9)
    stack, grads = rng.normal(size=(3, 40)), rng.normal(size=(8, 3, 40))
    alone = [(row.copy(), OptimizerState.fresh(40)) for row in stack]
    rows, rule, state = [0, 1, 2], StackedConfig.of(configs), OptimizerState.fresh(stack.shape)
    for k, grad in enumerate(grads):
        if k == 4:
            rows = [0, 2]
            stack, state.velocity = stack[rows], state.velocity[rows]
            rule = StackedConfig.of([configs[r] for r in rows])
        apply_update(stack, grad[rows], rule, state)
        for r in rows:
            apply_update(alone[r][0], grad[r], configs[r], alone[r][1])
        assert [row.tobytes() for row in stack] == [alone[r][0].tobytes() for r in rows]
        assert [v.tobytes() for v in state.velocity] == [alone[r][1].velocity.tobytes()
                                                         for r in rows]


def test_a_stack_needs_one_algorithm_and_one_schedule():
    one = OptimizerConfig("momentum", 0.1, 0.9)
    for other in (OptimizerConfig("nesterov", 0.1, 0.9),
                  OptimizerConfig("momentum", 0.1, 0.9, SCHEDULES["linear-decay"])):
        with pytest.raises(ConfigError, match="share the algorithm and the schedule"):
            StackedConfig.of([one, other])


def test_step_updates_model():
    model = build_model(ModelSpec("simple-mlp", (4,), (3,), 2, seed=0))
    from sparselab import nn
    rng = np.random.default_rng(1)
    _, _, grad = nn.batch_gradient(model, rng.normal(size=(4, 4)),
                                   rng.integers(0, 2, size=4))
    before = model.params.copy()
    eta = step(model, grad, OptimizerConfig("sgd", 0.1), OptimizerState.fresh(model.param_count))
    assert eta == 0.1
    assert not np.array_equal(before, model.params)


def test_non_finite_update_raises():
    params = np.array([1.0])
    with pytest.raises(NumericOverflow):
        apply_update(params, np.array([np.inf]),
                     OptimizerConfig("sgd", 1.0), OptimizerState.fresh(1))


def test_sgd_needs_no_momentum_coeff_and_keeps_its_bytes():
    params = np.random.default_rng(5).normal(size=64)
    state = OptimizerState.fresh(64)
    config = OptimizerConfig("sgd", 0.1)
    for i in range(20):
        apply_update(params, np.random.default_rng(50 + i).normal(size=64), config, state)
    # the bytes of this run when momentum_coeff defaulted to 0.0
    assert hashlib.sha256(params.tobytes()).hexdigest()[:16] == "dc0ff6e3d30b6c74"
    assert not state.velocity.any()


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig("adam", 0.1)
    with pytest.raises(ConfigError):
        OptimizerConfig("sgd", 0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig("momentum", 0.1, momentum_coeff=1.0)
    for algo in ("momentum", "nesterov"):
        with pytest.raises(ConfigError, match=f"{algo} needs momentum_coeff"):
            OptimizerConfig(algo, 0.1)
    with pytest.raises(ConfigError):
        ScheduleSpec("linear-decay", decay_horizon=0)


def test_convergence_bound_holds_on_quadratic():
    # Exactly known constants: L = lam_max, M = noise_power, mu = M_G = 1.
    lams = np.linspace(0.5, 4.0, 10)
    lips = float(lams.max())
    w1 = np.ones(10)
    f_start = 0.5 * float(w1 @ (lams * w1))
    noise_power = 2.0
    eta = 0.5 / lips
    for seed in range(3):
        avg = run_quadratic_sgd(lams, w1, eta, 500, noise_power, seed)
        bound = convergence_bound(eta, lips, noise_power, 1.0, 500, f_start, 0.0)
        assert avg <= bound
