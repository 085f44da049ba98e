import os

# One OpenBLAS thread, as the benchmark runs: on a small box the wall-clock
# gates (07, 08) slow down many times over when BLAS threads oversubscribe.
# Set before numpy is first imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from vecoff.channel import attach_comm_times
from vecoff.domain import ChannelParams, SimConfig, Task

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", parent=settings.get_profile("default"), max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_task(
    tid: int,
    arrival: float,
    proc: float,
    remaining: float,
    size: float = 1e6,
    vehicle: int | None = None,
    comm: float | None = None,
) -> Task:
    """A single task with optional pre-set comm time."""
    t = Task(
        id=tid,
        vehicle_id=tid if vehicle is None else vehicle,
        arrival=arrival,
        size=size,
        proc_time=proc,
        remaining_in_range=remaining,
    )
    if comm is not None:
        t.comm_time = comm
    return t


def make_task_set(
    rng: np.random.Generator,
    n: int,
    arrival_span: float = 4.0,
    tight_deadlines: bool = False,
) -> list[Task]:
    """Random well-formed tasks with comm times attached."""
    tasks = []
    for i in range(n):
        arrival = float(rng.uniform(0.0, arrival_span))
        proc = float(rng.uniform(0.05, 0.5))
        if tight_deadlines:
            remaining = proc + float(rng.uniform(0.0, 1.0))
        else:
            remaining = proc + float(rng.uniform(0.5, 10.0))
        size = float(rng.uniform(1e5, 1e7))
        tasks.append(make_task(i, arrival, proc, remaining, size=size))
    tasks.sort(key=lambda t: (t.arrival, t.id))
    for new_id, t in enumerate(tasks):
        t.id = new_id
        t.vehicle_id = new_id
    attach_comm_times(tasks, ChannelParams())
    return tasks


def fd_gradient_gap(net, rng: np.random.Generator, batch: int = 3, h: float = 1e-6):
    """Worst |backprop - central difference| over every parameter of one net.

    The loss is a random linear functional of the outputs, so its exact
    gradient is the backward pass with grad_out = c. ReLU inputs are
    resampled until no pre-activation sits within 1e-4 of the kink, where
    the two-sided difference quotient would straddle a derivative jump.
    """
    x = rng.standard_normal((batch, net.sizes[0]))
    if net.activation == "relu" and len(net.weights) > 1:
        for _ in range(200):
            _, (pre, _, _) = net.forward(x, want_cache=True)
            if min(np.abs(z).min() for z in pre[:-1]) > 1e-4:
                break
            x = rng.standard_normal((batch, net.sizes[0]))
    c = rng.standard_normal((batch, net.sizes[-1]))

    def loss() -> float:
        return float((net.forward(x) * c).sum())

    _, cache = net.forward(x, want_cache=True)
    grads = net.backward(cache, c)
    worst = 0.0
    for p, g in zip(net.params(), grads):
        flat_p = p.ravel()  # view: edits write through to the layer
        flat_g = g.ravel()
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + h
            up = loss()
            flat_p[k] = orig - h
            down = loss()
            flat_p[k] = orig
            worst = max(worst, abs((up - down) / (2 * h) - flat_g[k]))
    return worst


@pytest.fixture
def sim2() -> SimConfig:
    """Two servers, no execution-time charging: the pure-ordering mode."""
    return SimConfig(num_mecs=2, charge_exec_time=False)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
