"""The vecoff benchmark: four workloads, their output checks, and the
end-to-end metrics.

Each workload is a fixed list of work run back to back in one process,
a closed loop of one with no arrival schedule. The work is cut into
passes; each pass runs the same kind of work on its own seeded inputs,
and ``--seconds`` sets how many passes a run makes (the pass lengths
below were measured on a 2-core x86_64 box). The number of passes never
depends on how fast the code runs, so schedule facts stay comparable
across commits. ``wall_s`` is the mean pass time. Every timing of an
untraced run is scaled to a reference machine speed (``speed.py``).

The package is driven only through its public functions, looked up on
their modules at call time, so the tracer's wrappers are the ones
called in a traced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from speed import SpeedMeter
from tracer import PER_LAYER_UNITS, Patcher, Tracer

WORKLOADS = ("study", "charged", "train")

# Claims of a gain are checked again on this seed, which was not used
# while tuning the benchmark or writing the change.
HELD_OUT_SEED = 7919

# One fixed decision charge for every algorithm on study and on train's
# deployment episodes, so their schedules are a pure function of the
# inputs.
SYNTHETIC_COST_S = 1e-4

# Swarm budget on study and charged. The defaults (50 particles, 100
# offline and 30 online iterations) cost 20-27 s per seed, too much to
# run the dozens of seeds per run that keep drop_ratio steady; this cut
# keeps every code path and the replays' share of study's host time.
BENCH_PSO = {"swarm_size": 20, "iterations_static": 10, "iterations_dynamic": 10}

DECIDE_ALGOS = ("on-dyn-pso", "dqn", "ppo")
# so that at least ten samples lie beyond p90
MIN_DECIDE_SAMPLES = 100
# Uncharged probe seeds per run on the workloads other than charged,
# spread over the passes; each seed runs on-dyn-pso, dqn and ppo back to
# back. on-dyn-pso's decision time grows with its windows, which differ
# from seed to seed (its per-episode mean has a CV of about 0.3 at 100
# and at 200 vehicles), so its mean needs many episodes; 100 vehicles
# keeps them cheap. With 32 seeds its mean still spread 0.17 over ten
# study runs. The machine's speed also moves within a second, so
# samples spread thinly over the run agree better than a few bursts.
PROBE_SEEDS = 64
PROBE_VEHICLES = 100
SETUP_REPEATS = 5

PACKAGE_MODULES = (
    "config", "domain", "engine", "experiments", "heuristics",
    "rl.envs", "rl.policy", "rl.nets", "rl.dqn", "rl.ppo",
)


@dataclass(frozen=True)
class Workload:
    algos: tuple[str, ...]
    densities: tuple[int, ...]
    synthetic: bool
    pass_s: float  # nominal seconds of one pass, sets the pass count
    seeds_per_pass: int  # matrix seeds, or deployment seeds on train
    episodes: int = 0  # trainer budget on train
    eval_every: int = 0
    probes: int = PROBE_SEEDS


FULL = {
    "study": Workload(
        algos=("off-sta-pso", "on-dyn-pso", "dqn", "ppo", "fcfs", "sdf"),
        densities=(50, 100, 200), synthetic=True, pass_s=4.3, seeds_per_pass=3,
    ),
    "charged": Workload(
        algos=("fcfs", "sdf", "on-dyn-pso", "dqn", "ppo"),
        densities=(100, 200), synthetic=False, pass_s=2.2, seeds_per_pass=4,
    ),
    "train": Workload(
        algos=("dqn", "ppo"), densities=(), synthetic=True, pass_s=4.5,
        seeds_per_pass=30, episodes=30, eval_every=10,
    ),
}

# A few seconds per workload, for the smoke test.
TINY = {
    "study": dataclasses.replace(FULL["study"], densities=(50,), seeds_per_pass=1, probes=1),
    "charged": dataclasses.replace(FULL["charged"], densities=(50,), seeds_per_pass=1),
    "train": dataclasses.replace(FULL["train"], seeds_per_pass=2, episodes=4, eval_every=2,
                                 probes=1),
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "objective_mean": "objective",
    "drop_ratio": "ratio",
    **{f"decide_mean_us.{a}": "us" for a in DECIDE_ALGOS},
}


# -- set-up ----------------------------------------------------------------


def import_package() -> dict[str, Any]:
    """Import vecoff afresh; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "vecoff" or m.startswith("vecoff.")]:
        del sys.modules[name]
    return {short: importlib.import_module(f"vecoff.{short}") for short in PACKAGE_MODULES}


def make_config(pkg: dict[str, Any], name: str, spec: Workload):
    cfg = pkg["config"].default_config()
    if name in ("study", "charged", "probe"):
        cfg.pso = pkg["heuristics"].PsoParams(**BENCH_PSO)
    if name == "probe":
        # measured decision times are recorded but not charged, so the
        # probe's windows depend on its inputs alone
        cfg.sim = dataclasses.replace(cfg.sim, charge_exec_time=False)
    if name == "train":
        cfg.dqn = dataclasses.replace(cfg.dqn, episodes=spec.episodes, eval_every=spec.eval_every)
        cfg.ppo = dataclasses.replace(cfg.ppo, episodes=spec.episodes, eval_every=spec.eval_every)
    return pkg["config"].cross_validate(cfg)


def make_policies(pkg: dict[str, Any], cfg, rng: np.random.Generator) -> dict[str, Any]:
    """Seeded, untrained networks at the default shapes: ``select`` costs
    the same whatever the weights are."""
    enc = cfg.encoder
    mlp, policy = pkg["rl.nets"].Mlp, pkg["rl.policy"].Policy

    def net(out: int, hidden) -> Any:
        return mlp([enc.state_dim, *hidden, out], rng=rng)

    return {
        "dqn": policy("dqn", enc, {"q": net(enc.action_dim, cfg.dqn.hidden)}),
        "ppo": policy("ppo", enc, {
            "actor": net(enc.action_dim, cfg.ppo.hidden),
            "critic": net(1, cfg.ppo.hidden),
        }),
    }


def make_env(pkg: dict[str, Any], cfg, seed: int):
    return pkg["rl.envs"].OffloadEnv(
        cfg.geometry, cfg.workload, cfg.sim, cfg.channel, cfg.encoder,
        cfg.train_vehicles, seed=seed,
    )


@dataclass
class Inputs:
    """Everything a run derives from its seed, before any work."""

    pass_seeds: list[list[int]]
    probe_seeds: list[int]
    policy_seed: int


def draw_inputs(name: str, spec: Workload, seed: int, passes: int) -> Inputs:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    draws = [int(s) for s in rng.integers(1, 2**31 - 1, size=passes * spec.seeds_per_pass)]
    k = spec.seeds_per_pass
    return Inputs(
        pass_seeds=[draws[i * k:(i + 1) * k] for i in range(passes)],
        probe_seeds=[int(s) for s in rng.integers(1, 2**31 - 1, size=spec.probes)],
        policy_seed=int(rng.integers(1, 2**31 - 1)),
    )


@dataclass
class Setup:
    pkg: dict[str, Any]
    cfg: Any
    probe_cfg: Any
    policies: dict[str, Any]
    envs: list[tuple[Any, Any]]  # per pass on train: (dqn env, ppo env)


def set_up(name: str, spec: Workload, inputs: Inputs) -> Setup:
    pkg = import_package()
    cfg = make_config(pkg, name, spec)
    probe_cfg = make_config(pkg, "probe", spec)
    policies = make_policies(pkg, cfg, np.random.default_rng(inputs.policy_seed))
    envs = []
    if name == "train":
        envs = [
            (make_env(pkg, cfg, seeds[0]), make_env(pkg, cfg, seeds[0]))
            for seeds in inputs.pass_seeds
        ]
    return Setup(pkg, cfg, probe_cfg, policies, envs)


def set_up_only(name: str, seed: int, seconds: int) -> None:
    """The set-up of ``run`` alone, for ``run.py --setup-only``."""
    spec = FULL[name]
    passes = max(1, round(seconds / spec.pass_s))
    set_up(name, spec, draw_inputs(name, spec, seed, passes))


def fresh_setup_s(name: str, seed: int, seconds: int) -> float:
    """Seconds of one set-up in a fresh interpreter: numpy and vecoff
    imports, config, policies and, on train, the envs."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    done = subprocess.run(
        [sys.executable, run_py, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


# -- output checks ----------------------------------------------------------


def episode_problems(result, tol: float = 1e-9) -> list[str]:
    """What is wrong with one episode, if anything."""
    problems = []
    for ev in result.bandwidth_events:
        if not math.isclose(sum(ev.allocations), ev.bandwidth_max, rel_tol=tol):
            problems.append(f"allocations at t={ev.time} sum to {sum(ev.allocations)}")
    for t in result.tasks:
        status = t.status.value
        if status == "completed":
            expected = t.waiting + t.proc_time + 2.0 * t.comm_time
            if not math.isclose(t.e2e_latency, expected, rel_tol=tol):
                problems.append(f"task {t.id}: e2e {t.e2e_latency} != {expected}")
            delivered = t.start_proc + t.proc_time + t.comm_time
            if delivered > t.deadline + tol * max(1.0, t.deadline):
                problems.append(f"task {t.id}: delivered {delivered} after deadline {t.deadline}")
        elif status != "dropped":
            problems.append(f"task {t.id} ended {status}")
    return problems


def bound_problems(cells: list[tuple[Any, Any]], tol: float = 1e-9) -> dict[int, list[str]]:
    """The offline plan must be no worse than any online schedule of the
    same (density, seed). Keyed by the index of the offline cell."""
    online: dict[tuple[int, int], float] = {}
    for row, _ in cells:
        if row.algo != "off-sta-pso":
            key = (row.vehicles, row.seed)
            online[key] = min(online.get(key, math.inf), row.objective)
    out = {}
    for i, (row, _) in enumerate(cells):
        best = online.get((row.vehicles, row.seed))
        if row.algo == "off-sta-pso" and best is not None:
            if row.objective > best + tol * max(1.0, abs(best)):
                out[i] = [f"off-sta-pso {row.objective} worse than online {best} "
                          f"at {row.vehicles} vehicles, seed {row.seed}"]
    return out


def training_problems(algo: str, result) -> list[str]:
    problems = []
    if not all(math.isfinite(r) for r in result.reward_curve):
        problems.append(f"{algo}: reward curve not finite")
    if not result.eval_curve or not all(math.isfinite(s) for _, s in result.eval_curve):
        problems.append(f"{algo}: eval scores missing or not finite")
    if result.best_eval is None or not math.isfinite(result.best_eval):
        problems.append(f"{algo}: best_eval {result.best_eval!r}")
    return problems


class Outcome:
    """Operations attempted and failed, with the schedule facts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.objectives: list[float] = []
        self.dropped = 0
        self.tasks = 0
        self.report_hash = hashlib.sha256()

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def episodes(self, cells: list[tuple[Any, Any]], bound: bool, objectives: bool) -> None:
        extra = bound_problems(cells) if bound else {}
        for i, (row, result) in enumerate(cells):
            self.operation(episode_problems(result) + extra.get(i, []))
            if objectives:
                self.objectives.append(row.objective)
            self.dropped += result.num_dropped
            self.tasks += result.num_tasks


def decide_durations(cells: list[tuple[Any, Any]]) -> dict[str, list[float]]:
    """Measured ``select`` seconds per invoked window, per algorithm,
    read from the engine's window log."""
    out: dict[str, list[float]] = {a: [] for a in DECIDE_ALGOS}
    for row, result in cells:
        if row.algo in out:
            out[row.algo].extend(w.duration for w in result.windows if w.feasible_size >= 1)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- machine facts ------------------------------------------------------------


def blas_facts() -> dict[str, Any]:
    """The bundled OpenBLAS and its thread count, read through ctypes
    (threadpoolctl is not available)."""
    import ctypes
    import glob

    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "libscipy_openblas*.so*")))
    if not libs:
        return {"blas": "unknown", "blas_threads": None}
    lib = ctypes.CDLL(libs[0])
    for suffix in ("64_", ""):
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        if get_threads is not None and get_config is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"blas": get_config().decode(), "blas_threads": get_threads()}
    return {"blas": os.path.basename(libs[0]), "blas_threads": None}


def machine_facts() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **blas_facts(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


# -- the run ------------------------------------------------------------------


def run(name: str, seed: int, seconds: int, trace: bool, out_dir: str,
        tiny: bool = False, log=sys.stdout) -> dict[str, Any]:
    """One benchmark run; returns the object ``run.py`` prints last.

    ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups, each in a
    fresh interpreter (``run.py --setup-only``) so that it pays every
    import."""
    spec = (TINY if tiny else FULL)[name]
    passes = max(1, round(seconds / spec.pass_s))
    inputs = draw_inputs(name, spec, seed, passes)
    load_before = os.getloadavg()
    # the timings of an untraced run are scaled to a reference speed
    meter = None if trace else SpeedMeter()

    def phase(current: str | None) -> None:
        if meter is not None:
            meter.phase = current

    setup_times = [
        fresh_setup_s(name, seed, seconds) for _ in range(0 if trace else SETUP_REPEATS)
    ]
    setup = set_up(name, spec, inputs)
    pkg = setup.pkg

    captured: list[tuple[Any, Any]] = []
    capture = Patcher()
    original_cell = pkg["experiments"].run_cell

    def capturing_cell(config, algo, *args, **kwargs):
        if meter is not None:
            meter.tick(algo)
        out = original_cell(config, algo, *args, **kwargs)
        captured.append(out)
        if meter is not None:
            meter.tick(algo)
        return out

    outcome = Outcome()
    decide: dict[str, list[float]] = {a: [] for a in DECIDE_ALGOS}
    pass_times: list[float] = []
    tracer = None
    overhead_s = 0.0
    capture.patch(pkg["experiments"], "run_cell", capturing_cell)
    try:
        if trace:
            tracer = Tracer(name, max(setup.cfg.pso.swarm_size, 1)
                            * (setup.cfg.pso.iterations_dynamic + 1))
            untraced_s = [untraced_first_pass(name, spec, setup, inputs)]
            captured.clear()
        for i, seeds in enumerate(inputs.pass_seeds):
            envs = setup.envs[i] if setup.envs else None
            phase("pass")
            ticks_before = meter.total if meter is not None else 0.0
            with ticking_resets(envs, meter):
                elapsed, report = run_pass(name, spec, setup, seeds, envs, tracer)
            if meter is not None:
                elapsed -= meter.total - ticks_before
            pass_times.append(elapsed)
            phase(None)
            if name == "train":
                for algo, result in report.items():
                    problems = training_problems(algo, result)
                    outcome.operation(problems)
                    if not problems:
                        outcome.objectives.append(-result.best_eval)
                deploy(spec, setup, seeds, report)
                outcome.episodes(captured, bound=False, objectives=False)
            else:
                outcome.episodes(captured, bound=name == "study", objectives=True)
                outcome.report_hash.update(
                    json.dumps(report.to_dict(), sort_keys=True).encode()
                )
            if name != "charged" and not trace:
                # untimed probe episodes after each pass, so that their
                # samples spread over the run as charged's do
                captured.clear()
                phase("probe")
                k = len(inputs.probe_seeds)
                for probe_seed in inputs.probe_seeds[i * k // passes:(i + 1) * k // passes]:
                    pkg["experiments"].run_matrix(
                        setup.probe_cfg, algos=DECIDE_ALGOS, vehicle_counts=(PROBE_VEHICLES,),
                        seeds=[probe_seed], policies=setup.policies,
                    )
                phase(None)
            if name == "charged" or not trace:
                for algo, durs in decide_durations(captured).items():
                    decide[algo].extend(durs)
            captured.clear()
        if trace:
            untraced_s.append(untraced_first_pass(name, spec, setup, inputs))
            captured.clear()
            overhead_s = pass_times[0] - statistics.fmean(untraced_s)
    finally:
        if tracer is not None:
            tracer.restore()
        capture.restore()
    load_after = os.getloadavg()

    samples = {a: len(d) for a, d in decide.items()}
    facts = {
        "workload": name, "seed": seed, "passes": passes, "held_out_seed": HELD_OUT_SEED,
        **machine_facts(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "pass_s": pass_times, "setup_repeats_s": setup_times,
        "decide_samples": samples,
    }
    if name != "train":
        facts["report_sha256"] = outcome.report_hash.hexdigest()
    print("# facts: " + json.dumps(facts), file=log)
    for problem in outcome.problems[:20]:
        print(f"# check failed: {problem}", file=log)

    if trace:
        tracer.print_table(passes, statistics.median(pass_times), out=log)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
        tracer.write(path)
        print(f"# spans: {len(tracer.span_start)} written to {path}", file=log)
        values = tracer.metrics(passes, overhead_s)
        units = PER_LAYER_UNITS
    else:
        if not tiny and min(samples.values()) < MIN_DECIDE_SAMPLES:
            raise RuntimeError(f"too few decide samples for p90: {samples}")
        timings = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(pass_times),
        }
        p90 = {}
        for algo, durs in decide.items():
            timings[f"decide_mean_us.{algo}"] = statistics.fmean(durs) * 1e6
            p90[f"decide_p90_us.{algo}"] = percentile(durs, 0.9) * 1e6
        scale = {p: meter.scale(p) for p in meter.ticks}
        print("# unscaled timings: " + json.dumps({
            "speed_scale": scale, "ticks": {p: len(t) for p, t in meter.ticks.items()},
            **timings, **p90,
        }), file=log)
        # each algorithm's decisions by the ticks beside its episodes:
        # charged's own, inside the passes, or the probe's
        decide_scale = {
            a: scale[f"{'pass' if name == 'charged' else 'probe'}.{a}"] for a in DECIDE_ALGOS
        }
        # information only: a tail follows the machine's slow spells, so
        # it spreads more between runs than the bounds allow
        print("# decide p90, scaled: " + json.dumps(
            {f"decide_p90_us.{a}": p90[f"decide_p90_us.{a}"] * decide_scale[a]
             for a in DECIDE_ALGOS}), file=log)
        # set-up takes place in the same state of the machine as the
        # passes; ticks beside the set-up processes read slow after each
        # one, with caches cold
        timings["setup_s"] *= scale["pass"]
        timings["wall_s"] *= scale["pass"]
        for algo in DECIDE_ALGOS:
            timings[f"decide_mean_us.{algo}"] *= decide_scale[algo]
        values = {
            **timings,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "objective_mean": statistics.fmean(outcome.objectives),
            "drop_ratio": outcome.dropped / outcome.tasks,
        }
        units = E2E_UNITS
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


@contextlib.contextmanager
def ticking_resets(envs, meter: SpeedMeter | None):
    """On train, tick the meter before every training episode: the
    trainers call ``env.reset`` on these instances."""
    if not envs or meter is None:
        yield
        return
    for env in envs:
        env.reset = ticked(env.reset, meter)
    try:
        yield
    finally:
        for env in envs:
            del env.reset  # the class's method again


def ticked(fn, meter: SpeedMeter):
    def call(*args, **kwargs):
        meter.tick()
        return fn(*args, **kwargs)
    return call


def untraced_first_pass(name: str, spec: Workload, setup: Setup, inputs: Inputs) -> float:
    """The first pass again, untraced and on fresh envs, for the tracing
    overhead. A traced run does this before and after its traced passes
    and averages the two, so that drift in machine speed cancels."""
    seeds = inputs.pass_seeds[0]
    envs = None
    if setup.envs:
        envs = tuple(make_env(setup.pkg, setup.cfg, seeds[0]) for _ in range(2))
    return run_pass(name, spec, setup, seeds, envs, None)[0]


def run_pass(name: str, spec: Workload, setup: Setup, seeds: list[int], envs,
             tracer: Tracer | None) -> tuple[float, Any]:
    """One pass of the workload's fixed work: its host seconds, with the
    matrix report, or the two training results on train. Only the calls
    into the package are timed."""
    pkg, cfg = setup.pkg, setup.cfg
    if tracer is not None:
        tracer.install(pkg)
        tracer.open("bench.pass")
    t0 = time.perf_counter()
    try:
        if name == "train":
            env_dqn, env_ppo = envs
            out = {
                "dqn": pkg["rl.dqn"].train_dqn(env_dqn, cfg.dqn, seed=seeds[0]),
                "ppo": pkg["rl.ppo"].train_ppo(env_ppo, cfg.ppo, seed=seeds[0]),
            }
        else:
            out = pkg["experiments"].run_matrix(
                cfg, algos=spec.algos, vehicle_counts=spec.densities, seeds=seeds,
                policies=setup.policies, synthetic_costs=synthetic_costs(pkg, spec),
            )
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.close()
            tracer.restore()
    return elapsed, out


def synthetic_costs(pkg: dict[str, Any], spec: Workload) -> dict[str, float] | None:
    if not spec.synthetic:
        return None
    return {a: SYNTHETIC_COST_S for a in pkg["experiments"].ALGO_TAGS}


def deploy(spec: Workload, setup: Setup, seeds: list[int], trained: dict[str, Any]) -> None:
    """Run the trained policies on the pass's deployment seeds, untimed,
    for the drop ratio and the episode checks."""
    pkg, cfg = setup.pkg, setup.cfg
    pkg["experiments"].run_matrix(
        cfg, algos=spec.algos, vehicle_counts=(cfg.train_vehicles,), seeds=seeds,
        policies={a: r.policy for a, r in trained.items()},
        synthetic_costs=synthetic_costs(pkg, spec),
    )
