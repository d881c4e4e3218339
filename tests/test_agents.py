import copy
import dataclasses
import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from drawing import copying
from ramdqn import agents, harness
from ramdqn.agents import (
    HyperParams,
    build_architecture,
    compute_targets,
    epsilon_at,
    greedy_action,
    select_action,
    train_step,
)
from ramdqn.envs import make_env
from ramdqn.harness import ExperimentConfig, TrainingState, run_test_period
from ramdqn.optim import rmsprop_state_for
from ramdqn.replay import Minibatch, ReplayMemory
from ramdqn.tensor_core import LayerSpec, ShapeError, Workspace, forward, make_network


def test_epsilon_endpoints():
    s = HyperParams()
    assert epsilon_at(s, 0) == 1.0
    assert epsilon_at(s, 1_000_000) == 0.1
    assert epsilon_at(s, 5_000_000) == 0.1


def test_epsilon_linear_midpoint():
    assert abs(epsilon_at(HyperParams(), 250_000) - 0.775) < 1e-12


@given(st.integers(0, 3_000_000), st.integers(0, 3_000_000))
@settings(max_examples=100, deadline=None)
def test_epsilon_monotone_and_bounded(a, b):
    s = HyperParams()
    lo, hi = sorted((a, b))
    assert 0.1 <= epsilon_at(s, hi) <= epsilon_at(s, lo) <= 1.0


def hidden_layers(net):
    return [spec for spec in net.layers if spec.kind != "input"]


def test_just_ram_layer_sequence():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    layers = hidden_layers(net)
    assert [(l.kind, l.units, l.activation) for l in layers] == [
        ("dense", 128, "rectify"),
        ("dense", 128, "rectify"),
        ("dense", 4, "none"),
    ]


def test_big_ram_hidden_depth():
    net = build_architecture("big_ram", 18, rng=np.random.default_rng(0))
    rectified = [l for l in hidden_layers(net)
                 if l.kind == "dense" and l.activation == "rectify"]
    assert len(rectified) == 4
    assert all(l.units == 128 for l in rectified)


def test_nips_layer_sequence():
    net = build_architecture("nips", 4, screen_shape=(32, 32),
                             rng=np.random.default_rng(0))
    kinds = [l.kind for l in hidden_layers(net)]
    assert kinds == ["conv2d", "conv2d", "dense", "dense"]
    assert hidden_layers(net)[2].units == 256
    assert net.layers[-1].activation == "none"


def test_mixed_ram_concat_feeds_output():
    net = build_architecture("mixed_ram", 6, screen_shape=(32, 32),
                             rng=np.random.default_rng(0))
    concat = [i for i, l in enumerate(net.layers) if l.kind == "concat"]
    assert len(concat) == 1
    assert net.out_shapes[concat[0]] == (256 + 128,)


def test_big_mixed_ram_concat_width():
    net = build_architecture("big_mixed_ram", 6, screen_shape=(32, 32),
                             rng=np.random.default_rng(0))
    concat = [i for i, l in enumerate(net.layers) if l.kind == "concat"]
    assert len(concat) == 1
    assert net.out_shapes[concat[0]] == (384,)
    # The concat feeds a rectified 256-wide dense layer.
    consumer = [l for l in net.layers if concat[0] in l.input_refs][0]
    assert (consumer.kind, consumer.units, consumer.activation) == ("dense", 256, "rectify")


def test_screen_shape_required_for_screen_nets():
    with pytest.raises(ValueError):
        build_architecture("nips", 4)


@pytest.mark.parametrize("name, screen_shape, error, message", [
    ("alexnet", (16, 16), ValueError, "unknown architecture 'alexnet'"),
    ("nips", (3, 3), ShapeError, "screen (3, 3) too small for any conv plan"),
    ("big_mixed_ram", (16, 2), ShapeError, "screen (16, 2) too small for any conv plan"),
])
def test_build_architecture_refuses_an_unknown_name_or_a_screen_too_small(
        name, screen_shape, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build_architecture(name, 4, screen_shape=screen_shape)


# Captured from the five hand-written builders that ARCHITECTURES replaced:
# any change of a network's layers, references, dropout placement, shapes or
# weight draws fails here.
PINNED_NETWORKS = "12b8a7c4d7a395142ba1cd40790313b9"


def test_every_built_network_matches_the_pinned_digest():
    h = hashlib.sha256()
    for arch, dropout_p, screen in itertools.product(
            agents.ARCHITECTURES, (0.0, 0.25), ((16, 16), (20, 16), (20, 20), (32, 32))):
        net = build_architecture(arch, 5, screen_shape=screen, phi_length=3,
                                 dropout_p=dropout_p, rng=np.random.default_rng(7))
        h.update(repr((net.layers, net.out_shapes, net.input_streams)).encode())
        h.update(net.flat.tobytes())
    assert h.hexdigest()[:32] == PINNED_NETWORKS


def test_hyper_rejects_replay_smaller_than_minibatch():
    with pytest.raises(ValueError, match="replay_capacity"):
        HyperParams(replay_capacity=10)  # minibatch 32: would never train


def test_hyper_rejects_replay_smaller_than_start_size():
    with pytest.raises(ValueError, match="replay_capacity"):
        HyperParams(replay_capacity=50, minibatch_size=8, replay_start_size=100)


@pytest.mark.parametrize("lr", [0.0, -0.001, float("nan"), float("inf")])
def test_hyper_rejects_nonpositive_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        HyperParams(learning_rate=lr)


@pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
def test_hyper_rejects_dropout_outside_unit_interval(p):
    with pytest.raises(ValueError, match="dropout_p"):
        HyperParams(dropout_p=p)


@pytest.mark.parametrize("eps", [-0.01, 1.01])
def test_hyper_rejects_test_epsilon_outside_unit_interval(eps):
    with pytest.raises(ValueError, match="test_epsilon"):
        HyperParams(test_epsilon=eps)


@pytest.mark.parametrize("start, low", [
    (2.0, 1.5),           # both above 1: select_action would fail mid-epoch
    (1.0, -0.1),
    (0.5, 0.6),           # the fade would rise
    (float("nan"), 0.1),
    (1.0, float("nan")),
])
def test_hyper_rejects_epsilons_out_of_order(start, low):
    with pytest.raises(ValueError, match="epsilon_min <= epsilon_start"):
        HyperParams(epsilon_start=start, epsilon_min=low)


@pytest.mark.parametrize("name", ["learning_rate", "discount", "epsilon_start", "epsilon_min",
                                  "dropout_p", "test_epsilon"])
@pytest.mark.parametrize("value", [True, False, "0.5"])
def test_hyper_float_settings_must_be_real_numbers(name, value):
    # A bool passed every range check: learning_rate=True reached RMSprop as its rate.
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        HyperParams(**{name: value})


INT_SETTINGS = [f.name for f in dataclasses.fields(HyperParams) if type(f.default) is int]


def test_hyper_int_settings_are_the_eight_counts():
    assert INT_SETTINGS == ["minibatch_size", "replay_capacity", "phi_length",
                            "epsilon_decay_steps", "replay_start_size", "frame_skip",
                            "steps_per_epoch", "test_steps"]


@pytest.mark.parametrize("name", INT_SETTINGS)
@pytest.mark.parametrize("value", [True, 2.0, "2"])
def test_hyper_int_settings_must_be_plain_ints(name, value):
    # Plain ints only: the checkpoint header stores every field as JSON.
    with pytest.raises(ValueError, match=f"^{name} must be "):
        HyperParams(**{name: value})


@pytest.mark.parametrize("name", INT_SETTINGS)
def test_hyper_int_settings_must_reach_their_bound(name):
    below = -1 if name == "replay_start_size" else 0
    with pytest.raises(ValueError, match=f"^{name} must be "):
        HyperParams(**{name: below})


def test_hyper_settings_stay_as_checked():
    # Test periods read test_steps and test_epsilon without checking them again.
    hyper = HyperParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        hyper.test_epsilon = 2.0


def test_hyper_accepts_boundary_values():
    HyperParams(replay_capacity=100, minibatch_size=32, replay_start_size=100,
                dropout_p=0.0, test_epsilon=1.0)
    HyperParams(test_epsilon=0.0, dropout_p=0.99)
    HyperParams(epsilon_start=1.0, epsilon_min=1.0)
    HyperParams(epsilon_start=0.0, epsilon_min=0.0)
    HyperParams(learning_rate=1, discount=0, dropout_p=np.float32(0.5))
    HyperParams(replay_start_size=0)


def test_terminal_layer_has_no_activation():
    for name in ("just_ram", "big_ram"):
        net = build_architecture(name, 4, rng=np.random.default_rng(0))
        assert net.layers[net.terminal].activation == "none"


def fixed_q_net(q_values):
    """Single dense layer on a 3-wide input rigged to output q_values for
    the all-ones observation."""
    specs = [LayerSpec(kind="input", stream="ram", shape=(3,)),
             LayerSpec(kind="dense", units=len(q_values), input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    net.params[1]["W"][...] = 0.0
    net.params[1]["b"][...] = q_values
    return net


def test_select_action_argmax():
    net = fixed_q_net([1.0, 3.0, 2.0])
    obs = {"ram": np.ones(3)}
    a = select_action(net, lambda: greedy_action(net, obs), 0.0, np.random.default_rng(0))
    assert a == 1


@pytest.mark.parametrize("epsilon", [-0.1, 1.5, float("nan")])
def test_select_action_refuses_epsilon_outside_the_unit_interval(epsilon):
    def greedy():
        raise AssertionError("no action is chosen")

    with pytest.raises(ValueError, match=r"^epsilon must be in \[0, 1\]$"):
        select_action(fixed_q_net([1.0, 3.0]), greedy, epsilon, np.random.default_rng(0))


def test_select_action_tie_breaks_low():
    net = fixed_q_net([5.0, 5.0, 0.0])
    a = select_action(net, lambda: greedy_action(net, {"ram": np.ones(3)}), 0.0,
                      np.random.default_rng(0))
    assert a == 0


def test_select_action_constant_shift_invariance():
    base = [0.3, -1.2, 0.9, 0.1]
    net1 = fixed_q_net(base)
    a1 = select_action(net1, lambda: greedy_action(net1, {"ram": np.ones(3)}), 0.0,
                       np.random.default_rng(0))
    shifted = [v + 17.5 for v in base]
    net2 = fixed_q_net(shifted)
    a2 = select_action(net2, lambda: greedy_action(net2, {"ram": np.ones(3)}), 0.0,
                       np.random.default_rng(0))
    assert a1 == a2


def test_select_action_uniform_at_epsilon_one():
    net = fixed_q_net([9.0, 0.0, 0.0])
    rng = np.random.default_rng(77)
    n = 100_000
    counts = np.zeros(3)
    obs = {"ram": np.ones(3)}
    for _ in range(n):
        counts[select_action(net, lambda: greedy_action(net, obs), 1.0, rng)] += 1
    expected = n / 3
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_select_action_builds_inputs_only_for_greedy_actions():
    net = fixed_q_net([1.0, 3.0, 2.0])
    built = []

    def greedy_from_inputs():
        built.append(1)
        return greedy_action(net, {"ram": np.ones(3)})

    best = greedy_action(net, {"ram": np.ones(3)})
    for epsilon, greedy in ((0.0, 200), (0.3, None), (1.0, 0)):
        lazy_rng, eager_rng = np.random.default_rng(11), np.random.default_rng(11)
        built.clear()
        lazy = [select_action(net, greedy_from_inputs, epsilon, lazy_rng) for _ in range(200)]
        eager = [select_action(net, lambda: best, epsilon, eager_rng) for _ in range(200)]
        assert lazy == eager  # the same rng draws, in the same order
        if greedy is None:  # replay the epsilon draws to count the greedy actions
            draws, greedy = np.random.default_rng(11), 0
            for _ in range(200):
                if draws.random() < epsilon:
                    draws.integers(3)
                else:
                    greedy += 1
            assert 0 < greedy < 200
        assert len(built) == greedy


def test_compute_targets_reads_next_states_in_place_when_every_row_is_live(monkeypatch):
    net = fixed_q_net([1.0, 3.0, 2.0])
    seen = []
    real = agents.forward

    def recording_forward(graph, inputs, *args, **kwargs):
        seen.append(inputs)
        return real(graph, inputs, *args, **kwargs)

    monkeypatch.setattr(agents, "forward", recording_forward)
    batch = Minibatch({"ram": np.ones((2, 3))}, np.zeros(2, np.intp), np.array([0.5, 1.0]),
                      {"ram": np.ones((2, 3))}, np.zeros(2, bool))
    np.testing.assert_array_equal(compute_targets(net, batch, 0.5), [2.0, 2.5])
    assert seen[-1] is batch.next_state
    batch.terminal[0] = True
    np.testing.assert_array_equal(compute_targets(net, batch, 0.5), [0.5, 2.5])
    assert seen[-1]["ram"].shape == (1, 3)


def onehot_ram(i):
    ram = np.zeros(128, dtype=np.float32)
    ram[i] = np.float32(255 / 256)
    return {"ram": ram}


def ram_batch(rams, actions, rewards, next_rams, terminals):
    """A Minibatch of the `ram` stream, one row per list entry."""
    return Minibatch({"ram": np.array(rams)}, np.array(actions, dtype=np.intp),
                     np.array(rewards, dtype=np.float64), {"ram": np.array(next_rams)},
                     np.array(terminals, dtype=bool))


def test_compute_targets_terminal_cutoff():
    net = fixed_q_net([100.0, 100.0])
    batch = ram_batch([onehot_ram(0)["ram"]], [0], [5.0], [onehot_ram(1)["ram"]], [True])
    targets = compute_targets(net, batch, 0.95)
    np.testing.assert_array_equal(targets, [5.0])


@pytest.mark.parametrize("discount", [0.0, 0.95])
def test_compute_targets_refuses_an_empty_minibatch(discount):
    empty = ram_batch(np.zeros((0, 3)), [], [], np.zeros((0, 3)), [])
    with pytest.raises(ValueError, match="^minibatch must be nonempty$"):
        compute_targets(fixed_q_net([1.0, 2.0]), empty, discount)


def test_compute_targets_bellman_arithmetic():
    net = fixed_q_net([2.0, 1.0])
    batch = ram_batch([np.ones(3)], [0], [1.0], [np.ones(3)], [False])
    targets = compute_targets(net, batch, 0.95)
    np.testing.assert_allclose(targets, [1.0 + 0.95 * 2.0])


def test_compute_targets_myopic_at_gamma_zero():
    net = fixed_q_net([50.0, -3.0])
    batch = ram_batch([np.ones(3)] * 4, [0] * 4, [float(r) for r in range(4)],
                      [np.ones(3)] * 4, [False] * 4)
    np.testing.assert_array_equal(compute_targets(net, batch, 0.0),
                                  [0.0, 1.0, 2.0, 3.0])


def test_compute_targets_never_reads_terminal_next_state():
    net = fixed_q_net([1.0, 1.0])
    poison = np.full(3, np.nan)
    batch = ram_batch([np.ones(3)], [0], [2.0], [poison], [True])
    targets = compute_targets(net, batch, 0.95)
    np.testing.assert_array_equal(targets, [2.0])


def small_hyper(**kw):
    defaults = dict(minibatch_size=4, replay_start_size=4, frame_skip=1,
                    steps_per_epoch=10, test_steps=10)
    defaults.update(kw)
    return HyperParams(**defaults)


def test_train_step_deterministic():
    losses = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        net = build_architecture("just_ram", 3, rng=np.random.default_rng(1),
                                 dtype=np.float64)
        opt = rmsprop_state_for(net)
        data_rng = np.random.default_rng(2)

        def observe():
            return {"ram": data_rng.integers(0, 256, 128, dtype=np.uint8)}

        mem = ReplayMemory(16, observe())
        for i in range(8):
            mem.push(i % 3, float(i % 2), i % 4 == 0, copying(observe()))
        losses.append(train_step(net, mem, opt, small_hyper(), rng))
    assert losses[0] == losses[1]


def test_train_step_perfect_fit_keeps_params():
    # Zero net, zero rewards, terminal transitions: targets are already
    # matched, so the loss is 0 and parameters stay put.
    net = build_architecture("just_ram", 3, rng=np.random.default_rng(1),
                             dtype=np.float64)
    for p in net.params:
        if p is not None:
            for v in p.values():
                v[...] = 0.0
    opt = rmsprop_state_for(net)
    s = {"ram": np.random.default_rng(0).integers(0, 256, 128, dtype=np.uint8)}
    mem = ReplayMemory(8, s)
    for _ in range(4):
        mem.push(1, 0.0, True, copying(s))
    loss = train_step(net, mem, opt, small_hyper(), np.random.default_rng(5))
    assert loss == 0.0
    for p in net.params:
        if p is not None:
            for v in p.values():
                np.testing.assert_array_equal(v, np.zeros_like(v))


def test_train_step_converges_on_single_transition():
    net = build_architecture("just_ram", 3, rng=np.random.default_rng(1),
                             dtype=np.float64)
    opt = rmsprop_state_for(net, learning_rate=0.001)
    s = {"ram": np.random.default_rng(0).integers(0, 256, 128, dtype=np.uint8)}
    mem = ReplayMemory(8, s)
    for _ in range(4):
        mem.push(2, 1.0, True, copying(s))
    rng = np.random.default_rng(9)
    hyper = small_hyper()
    losses = [train_step(net, mem, opt, hyper, rng) for _ in range(500)]
    # RMSprop with a fixed learning rate plateaus near the optimum rather
    # than converging exactly, so check for a large relative reduction.
    assert np.mean(losses[-50:]) < 0.02 * losses[0]
    assert np.median(losses[250:]) <= np.median(losses[:50])


def test_training_a_deep_copy_leaves_the_original_unchanged():
    net = build_architecture("just_ram", 3, rng=np.random.default_rng(1))
    twin = copy.deepcopy(net)
    before = net.flat.copy()
    data_rng = np.random.default_rng(2)

    def observe():
        return {"ram": data_rng.integers(0, 256, 128, dtype=np.uint8)}

    mem = ReplayMemory(16, observe())
    for i in range(8):
        mem.push(i % 3, float(i % 2), i % 4 == 0, copying(observe()))
    opt, rng = rmsprop_state_for(twin), np.random.default_rng(3)
    for _ in range(5):
        train_step(twin, mem, opt, small_hyper(), rng)
    assert net.flat.tobytes() == before.tobytes()
    assert twin.flat.tobytes() != before.tobytes()
    for p, q in zip(twin.params, net.params):
        for key in p or {}:
            assert np.shares_memory(p[key], twin.flat)
            assert not np.shares_memory(p[key], net.flat)
            assert not np.shares_memory(q[key], twin.flat)


def warm_state(env_name, arch, dropout_p=0.0):
    """A TrainingState whose replay is warm, with terminal transitions in it."""
    hyper = HyperParams(replay_start_size=96, replay_capacity=256, frame_skip=2,
                        dropout_p=dropout_p)
    state = TrainingState(ExperimentConfig(env_name=env_name, arch=arch, hyper=hyper, seed=4))
    state.warmup()
    assert state.replay.start[1:].any()  # slot 0 starts the first episode
    return state


def step_args(state):
    return (state.net, state.replay, state.opt_state, state.hyper, state.sample_rng,
            state.dropout_rng)


@pytest.mark.parametrize("env_name, arch, dropout_p", [
    ("micro_catch", "just_ram", 0.0), ("micro_catch", "nips", 0.0),
    ("micro_breakout", "big_ram", 0.0), ("micro_diver", "big_mixed_ram", 0.0),
    ("micro_catch", "mixed_ram", 0.25)])
def test_train_steps_in_a_workspace_match_steps_in_new_arrays_bitwise(env_name, arch,
                                                                      dropout_p):
    # Steps of live-row target batches of several sizes, and full ones, in one
    # kept workspace: the dense products there run as (W @ x.T).T.
    kept, fresh = warm_state(env_name, arch, dropout_p), warm_state(env_name, arch, dropout_p)
    workspace = Workspace()
    for i in range(12):
        loss = train_step(*step_args(kept), workspace=workspace)
        assert float(loss).hex() == float(train_step(*step_args(fresh))).hex(), i
    assert kept.net.flat.tobytes() == fresh.net.flat.tobytes()
    assert kept.opt_state.accumulator.tobytes() == fresh.opt_state.accumulator.tobytes()


@pytest.mark.parametrize("env_name, arch", [
    ("micro_catch", "just_ram"), ("micro_catch", "nips"), ("micro_diver", "big_mixed_ram")])
def test_a_second_train_step_allocates_little_beyond_its_minibatch(env_name, arch):
    # The workspace holds every array of the step; what is left is the
    # minibatch the replay gathers, and numpy's own small temporaries.
    state, workspace = warm_state(env_name, arch), Workspace()
    train_step(*step_args(state), workspace=workspace)
    tracemalloc.start()
    try:
        state.replay.sample_minibatch(state.hyper.minibatch_size, np.random.default_rng(0))
        gather = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        train_step(*step_args(state), workspace=workspace)
        step = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert step <= gather + 64 * 1024, (step, gather)


def value_iteration_chain(gamma=0.95, tol=1e-12):
    """Independent oracle: 5-state chain, right walks toward the terminal
    reward, left walks back."""
    q = np.zeros((4, 2))
    while True:
        new = np.zeros_like(q)
        for s in range(4):
            for a in range(2):
                ns = min(s + 1, 4) if a == 1 else max(s - 1, 0)
                r = 1.0 if ns == 4 else 0.0
                new[s, a] = r + (0.0 if ns == 4 else gamma * new_max(q, ns))
        if np.max(np.abs(new - q)) < tol:
            return new
        q = new


def new_max(q, s):
    return float(q[s].max())


def test_tabular_equivalence_with_value_iteration():
    gamma = 0.95
    q_star = value_iteration_chain(gamma)

    specs = [LayerSpec(kind="input", stream="ram", shape=(128,)),
             LayerSpec(kind="dense", units=2, bias=False, input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    net.params[1]["W"][...] = 0.0
    opt = rmsprop_state_for(net, learning_rate=0.01)
    def onehot_bytes(i):
        ram = np.zeros(128, dtype=np.uint8)
        ram[i] = 255  # onehot_ram(i) once scaled
        return {"ram": ram}

    # Four episodes from state 3, each taking every (state, action) pair
    # once: left down to 0, left again, then right into the terminal state,
    # whose next observation is the next episode's first.
    mem = ReplayMemory(64, onehot_bytes(3))
    for _ in range(4):
        s = 3
        for a in (0, 0, 0, 0, 1, 1, 1, 1):
            ns = min(s + 1, 4) if a == 1 else max(s - 1, 0)
            r = 1.0 if ns == 4 else 0.0
            mem.push(a, r, ns == 4, copying(onehot_bytes(3 if ns == 4 else ns)))
            s = ns
    hyper = small_hyper(minibatch_size=32, replay_start_size=32, discount=gamma)
    rng = np.random.default_rng(4)
    for _ in range(5000):
        train_step(net, mem, opt, hyper, rng)

    q_net = np.zeros((4, 2))
    for s in range(4):
        acts = forward(net, {"ram": onehot_ram(s)["ram"][None, :]})
        q_net[s] = acts[net.terminal]["out"][0]
    assert np.max(np.abs(q_net - q_star)) < 0.05


def plain_q(net, inputs):
    """Q-values by a plain walk of the layers, each into a new array: x @ W.T for a
    dense layer, a strided-window matrix times W.T for a conv."""
    outs = []
    for i, spec in enumerate(net.layers):
        p, ups = net.params[i], [outs[r] for r in spec.input_refs]
        if spec.kind == "input":
            h = np.ascontiguousarray(inputs[spec.stream], dtype=net.dtype)
        elif spec.kind == "concat":
            h = np.concatenate([u.reshape(len(u), -1) for u in ups], axis=1)
        elif spec.kind == "dense":
            h = ups[0].reshape(len(ups[0]), -1) @ p["W"].T
        else:  # conv2d, channels-last as the program keeps it
            k, s, (f, oh, ow) = spec.kernel, spec.stride, net.out_shapes[i]
            win = sliding_window_view(ups[0], (k, k), axis=(2, 3))[:, :, ::s, ::s]
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(len(ups[0]) * oh * ow, -1)
            h = cols @ p["W"].reshape(f, -1).T
        if p is not None:
            h += p["b"]
            if spec.activation == "rectify":
                np.maximum(h, 0, out=h)
            if spec.kind == "conv2d":
                h = h.reshape(len(ups[0]), oh, ow, f).transpose(0, 3, 1, 2)
        outs.append(h)
    return outs[net.terminal]


@pytest.mark.parametrize("arch", agents.ARCHITECTURES)
def test_test_period_actions_match_a_plain_layer_walk(arch, monkeypatch):
    # A 2,000-action test period acts through the network's program and its kept
    # batch-1 workspace: every forward's Q-values must have the bits of a plain
    # layer walk in new arrays, the way acting computed them before the program,
    # and its action their argmax.  A greedy action in a window seen before in
    # the period runs no forward; test_harness checks that it is the kept one.
    env, hyper = make_env("micro_diver"), HyperParams(frame_skip=2, test_steps=2000)
    net = build_architecture(arch, env.action_count, screen_shape=env.screen_shape,
                             phi_length=hyper.phi_length, rng=np.random.default_rng(11))
    real_forward, real_select = agents.forward, harness.select_action
    forwards, picks = [], []

    def recording_forward(graph, inputs, *args, **kwargs):
        acts = real_forward(graph, inputs, *args, **kwargs)
        forwards.append(({k: v.copy() for k, v in inputs.items()},
                         acts[graph.terminal]["out"].copy()))
        return acts

    def recording_select(net, greedy, *args):
        called = []

        def recorded():
            called.append(True)
            return greedy()

        before, action = len(forwards), real_select(net, recorded, *args)
        picks.append((action, bool(called), len(forwards) > before))
        return action

    monkeypatch.setattr(agents, "forward", recording_forward)
    monkeypatch.setattr(harness, "select_action", recording_select)
    run_test_period(net, "micro_diver", hyper, seed=3)
    greedy = [action for action, is_greedy, _ in picks if is_greedy]
    from_q = [action for action, _, ran_forward in picks if ran_forward]
    assert len(picks) == 2000 and len(greedy) > 1800 and len(from_q) == len(forwards) > 0
    for action, (inputs, q) in zip(from_q, forwards):
        want = plain_q(net, inputs)
        assert q.tobytes() == want.tobytes()
        assert action == int(np.argmax(want[0]))
