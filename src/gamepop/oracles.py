"""Best-response oracles: exact, tabular Q-learning, DQN-lite, and gradient
ascent for the continuous mixture game, plus the hull-divergence intrinsic
reward used by the diversity-seeking variant.

All oracles are deterministic given (seed, config). The exact oracle ignores
any initialization by construction; initialization only matters to the
approximate oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nets
from .games import best_response
from .games.base import Game, InfosetView, sample_episode
from .games.ntmg import (S_MATRIX, NtmgConfig, ntmg_densities,
                         ntmg_densities_jacobian, ntmg_payoff,
                         ntmg_payoff_grad)
from .policies import (ParametricPolicy, PointPolicy, PolicyMixture,
                       TabularPolicy, floored, greedy_index,
                       kl_divergence, sample_member, weighted_sum)
from .specs import setting, spec


@dataclass
class Step:
    """One learner transition of a trajectory."""
    view: InfosetView
    action: int  # global action id
    reward: float
    next_view: InfosetView | None  # None on the learner's last step


@spec(ValueError)
class DqnOracle:
    """The DQN best-response oracle: the network architecture of a fresh
    response and the training settings."""
    hidden_layers: tuple[int, ...] = setting((64, 64), ge=1)
    replay_capacity: int = 10_000
    batch_size: int = setting(512, ge=1)
    lr: float = setting(5e-3, gt=0.0)
    gamma_discount: float = setting(1.0, ge=0.0, le=1.0)
    epsilon: float = setting(0.05, ge=0.0, le=1.0)
    target_update_every: int = setting(5, ge=1)
    episodes: int = setting(20_000, ge=0)
    optimizer: str = setting("adam", choices=("sgd", "adam"))
    grad_clip: float | None = setting(None, gt=0.0)
    soft_update_tau: float | None = setting(None, gt=0.0, le=1.0)

    def __post_init__(self):
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay_capacity: must be >= batch_size")


def run_learner_episode(game: Game, player: int, select, opponent,
                        rng: np.random.Generator) -> tuple[list[Step], float]:
    """Play one episode; `select(view) -> global action id` drives the
    learner, the opponent plays its evaluation-time distribution, drawn
    from its `Reading` of the tree. Returns the learner's transitions and
    terminal reward."""
    pending: tuple[InfosetView, int] | None = None
    steps: list[Step] = []
    reading = opponent.reading(game.tree, 1 - player)

    def choose(current, view):
        nonlocal pending
        if current != player:
            return reading.draw(view, rng)
        action = select(view)
        assert action in view.legal_actions, "oracle chose an illegal action"
        if pending is not None:
            steps.append(Step(pending[0], pending[1], 0.0, view))
        pending = (view, action)
        return action

    reward = sample_episode(game, choose, rng)[player]
    if pending is not None:
        steps.append(Step(pending[0], pending[1], reward, None))
    return steps, reward


def exact_oracle(game: Game, opponent_mixture, player: int) -> TabularPolicy:
    """Exact best response; initialization-independent by construction."""
    policy, _ = best_response(game, opponent_mixture, player)
    return policy


def q_learning_oracle(game: Game, init: TabularPolicy | None,
                      opponent_mixture: PolicyMixture, player: int,
                      episodes: int, lr: float = 0.1, epsilon: float = 0.1,
                      gamma_discount: float = 1.0,
                      seed: int = 0) -> TabularPolicy:
    """One-step tabular Q-learning over infoset keys.

    Each episode samples a single opponent from the mixture. A given init
    policy seeds first-touch Q-values with its action probabilities;
    otherwise they start at zero. The returned policy is greedy in the
    learned table.
    """
    rng = np.random.default_rng(seed)
    q_table: dict[str, np.ndarray] = {}

    def q_for(view: InfosetView) -> np.ndarray:
        q = q_table.get(view.key)
        if q is None:
            n = len(view.legal_actions)
            q = q_table[view.key] = np.zeros(n) if init is None else (
                init.dist_for_key(view.key, n).astype(float))
        return q

    def select(view: InfosetView) -> int:
        q = q_for(view)
        if rng.random() < epsilon:
            return view.legal_actions[rng.integers(len(view.legal_actions))]
        return view.legal_actions[int(np.argmax(q))]

    for _ in range(episodes):
        opponent = sample_member(opponent_mixture, rng)
        steps, _ = run_learner_episode(game, player, select, opponent, rng)
        for step in steps:
            q = q_for(step.view)
            idx = step.view.legal_actions.index(step.action)
            if step.next_view is None:
                bootstrap = 0.0
            else:
                bootstrap = float(q_table[step.next_view.key].max())
            q[idx] += lr * (step.reward + gamma_discount * bootstrap - q[idx])

    return TabularPolicy.greedy(
        q_table, [len(q) for q in q_table.values()],
        [int(np.argmax(q)) for q in q_table.values()])


@dataclass
class PsdBonus:
    """Hull-divergence intrinsic reward configuration for one training run."""
    hull_samples: list
    lam: float


def psd_intrinsic_reward(steps: list[Step], new_policy, hull_samples,
                         lam: float, gamma_discount: float) -> np.ndarray:
    """Per-step rewards with the hull-divergence bonus added.

    The trajectory bonus is lam times the smallest mean per-step KL from the
    new policy to any hull sample; it is discounted back from the final step
    and added to the extrinsic rewards.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if not hull_samples:
        raise ValueError("hull_samples must be non-empty")
    rewards = np.array([s.reward for s in steps], dtype=float)
    if lam == 0.0 or not steps:
        return rewards
    news = [floored(new_policy.dist_at(step.view)) for step in steps]
    divergences = []
    for sample in hull_samples:
        total = 0.0
        for step, p in zip(steps, news):
            total += kl_divergence(p, sample.dist_at(step.view))
        divergences.append(total / len(steps))
    bonus = lam * min(divergences)
    horizon = len(steps)
    for t in range(horizon):
        rewards[t] += bonus * gamma_discount ** (horizon - 1 - t)
    return rewards


def dqn_oracle(game: Game, init: ParametricPolicy,
               opponent_mixture: PolicyMixture, player: int, cfg: DqnOracle,
               seed: int = 0,
               psd: PsdBonus | None = None) -> tuple[ParametricPolicy, list]:
    """DQN with uniform replay and a target network.

    Behavior is epsilon-greedy over legal-masked action values; the squared
    temporal-difference loss is minimized with the configured optimizer; the
    target network is hard-copied every `target_update_every` learner steps
    unless a soft-update ratio is set. The network keeps the architecture of
    `init`. Returns the trained policy and the per-episode trailing-window
    mean-reward curve.
    """
    if init.signature.input_dim != game.encoding_dim():
        raise ValueError("init signature does not match the game encoder")
    if init.signature.output_dim != game.num_distinct_actions():
        raise ValueError("init signature does not match the action space")
    if cfg.episodes == 0:
        return init, []
    rng = np.random.default_rng(seed)
    sig = init.signature
    # The online and target networks live in these two arrays for the whole
    # run and are updated in place, so `nets` keeps reading their views.
    theta = init.theta.copy()
    target_theta = theta.copy()
    optimizer = nets.make_optimizer(cfg.optimizer, cfg.lr)
    tau = cfg.soft_update_tau

    n_actions = game.num_distinct_actions()
    # A transition holds its view and its next view as their rows in these
    # tables; row -1, the next view of a last step, has zero features and
    # no legal action.
    infosets = game.tree.infosets[player]
    features, illegal = infosets.features, ~infosets.legal
    capacity, batch_size = cfg.replay_capacity, cfg.batch_size
    replay_views = np.zeros((capacity, 2), dtype=np.intp)
    replay_action = np.zeros(capacity, dtype=np.intp)
    replay_reward = np.zeros(capacity)
    size, cursor, learner_steps = 0, 0, 0

    def select(view: InfosetView) -> int:
        if rng.random() < cfg.epsilon:
            return view.legal_actions[rng.integers(len(view.legal_actions))]
        q = nets.forward(sig, theta, view.features)
        return view.legal_actions[greedy_index(q, view.legal_actions)]

    # Each learn step gathers its batch into these buffers.
    batch_views = np.empty((batch_size, 2), dtype=np.intp)
    batch_x = np.empty((batch_size, features.shape[1]))
    batch_next = np.empty_like(batch_x)
    batch_action = np.empty(batch_size, dtype=np.intp)
    batch_reward = np.empty(batch_size)
    batch_illegal = np.empty((batch_size, n_actions), dtype=bool)
    best_next = np.empty(batch_size)
    targets = np.empty(batch_size)
    # Flat position of each row's taken action in a (batch, actions) array.
    row_start = np.arange(batch_size) * n_actions
    taken = np.empty(batch_size, dtype=np.intp)
    td = np.empty(batch_size)
    grad_out = np.zeros((batch_size, n_actions))
    scaled = np.empty_like(theta) if tau is not None else None

    def td_gradient(q_all):
        np.subtract(np.take(q_all, taken, out=td), targets, out=td)
        # The mean squared TD error is finite when its sum is.
        if not math.isfinite(td @ td):
            raise FloatingPointError("TD loss diverged; lower the lr")
        np.divide(np.multiply(td, 2.0, out=td), batch_size, out=td)
        grad_out.fill(0.0)
        grad_out.put(taken, td)
        return grad_out

    def learn_step():
        nonlocal learner_steps
        batch = rng.integers(size, size=batch_size)
        at, after = replay_views.take(batch, 0, out=batch_views).T
        features.take(at, 0, out=batch_x)
        features.take(after, 0, out=batch_next)
        illegal.take(after, 0, out=batch_illegal)
        replay_action.take(batch, out=batch_action)
        replay_reward.take(batch, out=batch_reward)
        np.add(row_start, batch_action, out=taken)
        q_next = nets.forward(sig, target_theta, batch_next)
        np.copyto(q_next, -np.inf, where=batch_illegal)
        q_next.max(axis=1, out=best_next)
        # A last step's next values are all -inf; its best_next is 0.0.
        np.copyto(best_next, 0.0, where=after < 0)
        np.add(batch_reward,
               np.multiply(best_next, cfg.gamma_discount, out=best_next),
               out=targets)
        _, grad = nets.forward_backward(sig, theta, batch_x, td_gradient)
        if cfg.grad_clip is not None:
            grad = nets.clip_grad_norm(grad, cfg.grad_clip)
        optimizer.step(theta, grad, out=theta)
        learner_steps += 1
        if tau is not None:
            np.multiply(target_theta, 1.0 - tau, out=target_theta)
            np.add(target_theta, np.multiply(theta, tau, out=scaled),
                   out=target_theta)
        elif learner_steps % cfg.target_update_every == 0:
            np.copyto(target_theta, theta)

    curve = []
    # The last 100 episode rewards, oldest first; their mean is taken as
    # np.mean takes it, a sum in this order over the count.
    window = np.empty(min(cfg.episodes, 100))
    filled = 0
    for episode in range(cfg.episodes):
        opponent = sample_member(opponent_mixture, rng)
        steps, reward = run_learner_episode(game, player, select, opponent, rng)
        rewards = [s.reward for s in steps]
        if psd is not None:
            rewards = psd_intrinsic_reward(
                steps, ParametricPolicy(sig, theta), psd.hull_samples,
                psd.lam, cfg.gamma_discount)
        # One transition at a time, each followed by its learn step: a
        # learn step samples the buffer as it is after that transition.
        for step, r in zip(steps, rewards):
            replay_views[cursor] = (
                step.view.index,
                -1 if step.next_view is None else step.next_view.index)
            replay_action[cursor] = step.action
            replay_reward[cursor] = r
            cursor = (cursor + 1) % capacity
            size = min(size + 1, capacity)
            if size >= batch_size:
                learn_step()
        if filled == len(window):
            window[:-1] = window[1:]
            filled -= 1
        window[filled] = reward
        filled += 1
        curve.append((episode + 1,
                      float(np.add.reduce(window[:filled]) / filled)))
    return ParametricPolicy(sig, theta), curve


def ntmg_oracle(init, opponent_mixture: PolicyMixture, steps: int, lr: float,
                cfg: NtmgConfig):
    """Gradient ascent on the mixture-averaged plane payoff.

    Against a fixed mixture the payoff reduces to
    ``dens(x) @ (S dbar + 1/2) + const`` with dbar the weight-averaged
    opponent density vector, so each step costs one Jacobian regardless of
    mixture size. Returns the trained point policy and the full per-step
    trajectory (including the start point) for plotting.
    """
    if steps < 1 or lr <= 0:
        raise ValueError("steps >= 1 and lr > 0 required")
    x = np.array(init.x, dtype=float)
    trajectory = [x.copy()]
    dbar = weighted_sum(opponent_mixture.weights, opponent_mixture.members,
                        lambda policy: ntmg_densities(policy.x, cfg))
    coeff = S_MATRIX @ dbar + 0.5
    for _ in range(steps):
        grad = ntmg_densities_jacobian(x, cfg).T @ coeff
        x = np.clip(x + lr * grad, -cfg.plane_bound, cfg.plane_bound)
        trajectory.append(x.copy())
    return PointPolicy(x, cfg.plane_bound), trajectory


def ntmg_mixture_payoff(x, opponent_mixture: PolicyMixture,
                        cfg: NtmgConfig) -> float:
    return weighted_sum(opponent_mixture.weights, opponent_mixture.members,
                        lambda policy: ntmg_payoff(x, policy.x, cfg))


def gradient_check(cfg: NtmgConfig, num_points: int = 100, seed: int = 0,
                   span: float = 6.0, fd_step: float = 1e-6,
                   scale_floor: float = 1e-3) -> float:
    """Worst composite error between the analytic payoff gradient and central
    finite differences over random point pairs.

    The error is ||g - fd|| / max(||g||, ||fd||, scale_floor): relative where
    the gradient is meaningful, absolute (against the payoff scale) in flat
    basins where finite differences are dominated by roundoff.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_points):
        x = rng.uniform(-span, span, 2)
        y = rng.uniform(-span, span, 2)
        g = ntmg_payoff_grad(x, y, cfg)
        fd = np.zeros(2)
        for d in range(2):
            e = np.zeros(2)
            e[d] = fd_step
            fd[d] = (ntmg_payoff(x + e, y, cfg)
                     - ntmg_payoff(x - e, y, cfg)) / (2 * fd_step)
        denom = max(float(np.linalg.norm(g)), float(np.linalg.norm(fd)),
                    scale_floor)
        worst = max(worst, float(np.linalg.norm(g - fd)) / denom)
    return worst
