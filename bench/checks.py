"""Checks of catms CSV rows against computations made apart from catms.

Nothing in this module imports catms. Every row is checked against one of:
  - a closed form of the qubit-level model (CHANGES.md, "Settling the red
    acceptance criteria"): the S_x = s block keeps the amplitude
    x_s = exp(-i(β + π/2)s² - s²|χ|²/2), with χ and β from this module's own
    loop integrals of the schedule the row ran;
  - a trace-norm bound on what dissipation can remove, evaluated on a
    coherent reference;
  - a propagation written here with NumPy/SciPy (dense expm, 4th-order
    Magnus steps, one carrier-period propagator);
  - a stored reference of `refs.json`, made by `refs.py` with dense
    eigendecompositions.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.integrate import trapezoid

# Tolerances, each with the error it has to cover.
TOL_LOOP = 1e-9  # |χ| and β: rounding over at most 1000 segments
TOL_REF = 1e-9  # F̄ against dense eigh; the Taylor propagator stops at 1e-13 (measured 6e-12)
TOL_CLOSED = 1e-7  # F̄ against the closed form; bus truncation and expm_tol (measured 4e-9)
TOL_NOISY = 1e-6  # same, over 1000 segments at bus_dim 10 (measured 6e-8)
TOL_TRACE = 1e-6  # P_C <= 1: trace drift that dynamics.evolve_density tolerates
TOL_STATIC = 1e-9  # single-qubit F̄ against a dense expm of the same Hamiltonian
TOL_PREP = 1e-8  # cat-prep fidelity: RK45 at rtol 1e-9 against 4th-order Magnus (measured 8e-12)
TOL_JOSEPHSON = 1e-6  # RK4, 320 steps per carrier period, against U(T)^n (measured 1.7e-7)
TOL_SAME = 1e-9  # NOT with and without a vanishing Josephson term

TWO_PI_KEYS = ("kerr", "j_coupling", "delta", "omega_p")  # grid values that follow the 2π flag
PHYSICAL_GRID_KEYS = ("alpha", "bus_rate", "delta", "gamma", "gamma0", "j_coupling",
                      "kappa", "kappa0", "kerr", "n_qubits")


# --- recipe parameters ------------------------------------------------------------


def resolve(entry) -> float:
    """Bare number (rad/us), or {"value": v, "two_pi": flag} -> 2πv when flagged."""
    if isinstance(entry, dict):
        v = float(entry["value"])
        return 2.0 * np.pi * v if entry.get("two_pi", False) else v
    return float(entry)


def gate_params(doc: dict, point: dict) -> dict:
    """Physical parameters (rad/us) of one grid point of a gate recipe."""
    c = doc["config"]
    over = {k: v for k, v in point.items() if k in PHYSICAL_GRID_KEYS}
    if "bus_rate" in over:
        rate = float(over.pop("bus_rate"))
        over["kappa0"] = over["gamma0"] = rate

    def get(key, default=0.0):
        if key in over:
            flagged = (key in TWO_PI_KEYS and isinstance(c.get(key), dict)
                       and c[key].get("two_pi", False))
            return 2.0 * np.pi * float(over[key]) if flagged else float(over[key])
        return resolve(c[key]) if key in c else default

    m = int(c.get("m_loops", 1))
    j = get("j_coupling")
    alpha = float(over.get("alpha", c.get("alpha")))
    delta = get("delta", None)
    return {
        "n_qubits": int(over.get("n_qubits", c.get("n_qubits", 2))),
        "kerr": get("kerr"),
        "alpha": alpha,
        "j": j,
        "delta": 4.0 * np.sqrt(m) * j * alpha if delta is None else delta,
        "m_loops": m,
        "kappa": get("kappa"),
        "gamma": get("gamma"),
        "kappa0": get("kappa0"),
        "gamma0": get("gamma0"),
        "bus_dim": int(c.get("bus_dim", 10)),
        "kpo_dim": int(c.get("kpo_dim", 25)),
        "kpo_levels": None if c.get("kpo_levels") is None else int(c["kpo_levels"]),
    }


# --- loop geometry and the closed forms -------------------------------------------


def loop_integrals(times, delta, j, alpha: float) -> tuple[complex, float]:
    """(χ, β) at the end of a piecewise-constant (Δ, J) schedule.

    dχ/dt = 2J(t)α e^{iφ(t)} with φ = ∫Δ, and dβ/dt = Im(conj(dχ/dt) χ);
    both are integrated exactly on each segment.
    """
    u = np.diff(np.asarray(times, dtype=float))
    d = np.asarray(delta, dtype=float)
    g = 2.0 * np.asarray(j, dtype=float) * alpha * np.exp(
        1j * np.concatenate([[0.0], np.cumsum(d * u)])[:-1])
    still = np.abs(d) < 1e-14
    ds = np.where(still, 1.0, d)
    grow = np.where(still, u, (np.exp(1j * ds * u) - 1.0) / (1j * ds))
    back = np.where(still, u, (1.0 - np.exp(-1j * ds * u)) / (1j * ds))
    steps = g * grow
    chi_before = np.concatenate([[0.0], np.cumsum(steps)])[:-1]
    cross = np.sum(np.imag(np.conj(g) * chi_before * back))
    own = np.sum(np.where(still, 0.0, np.abs(g) ** 2 / ds * (np.sin(ds * u) / ds - u)))
    return complex(chi_before[-1] + steps[-1]), float(cross + own)


def sx_spectrum(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues s of S_x = Σσx/2 and their multiplicities."""
    k = np.arange(n_qubits + 1)
    return k - n_qubits / 2.0, np.array([comb(n_qubits, int(i)) for i in k], dtype=float)


def closed_form_fidelities(n_qubits: int, chi: complex, beta: float) -> tuple[float, float]:
    """(F̄, F_out of all-|C+>) of the propagator D(χS_x)e^{-iβS_x²}, bus in vacuum."""
    s, mult = sx_spectrum(n_qubits)
    x = np.exp(-1j * (beta + np.pi / 2.0) * s**2 - s**2 * abs(chi) ** 2 / 2.0)
    d = 2**n_qubits
    f_avg = (np.sum(mult * abs(x) ** 2) + abs(np.sum(mult * x)) ** 2) / (d**2 + d)
    return float(f_avg), float(abs(np.sum(mult * x) / d) ** 2)


def noisy_levels(seed: int, eps_s: float, n_events: int, targets, j: float, delta: float):
    """The random (J, Δ) levels of a noise_stochastic row: one Philox stream,
    J drawn before Δ, each level multiplied by 1 + u with u ~ U(-ε, ε)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    j_vals = np.full(n_events, j)
    d_vals = np.full(n_events, delta)
    for name in ("J", "delta"):
        if name in targets:
            u = rng.uniform(-eps_s, eps_s, n_events)
            if name == "J":
                j_vals = j_vals * (1.0 + u)
            else:
                d_vals = d_vals * (1.0 + u)
    return d_vals, j_vals


def row_schedule(doc: dict, point: dict, p: dict):
    """(breakpoints, Δ, J) of the schedule a gate row runs, cut at its end time."""
    t_g = 2.0 * np.pi * p["m_loops"] / p["delta"]
    kind = doc["kind"]
    if kind in ("gate_fidelity_sweep", "decoherence_sweep"):
        return np.array([0.0, t_g]), np.array([p["delta"]]), np.array([p["j"]])
    if kind == "noise_stochastic":
        n = doc.get("noise", {})
        n_events = int(n.get("n_events", 1000))
        d_vals, j_vals = noisy_levels(int(point["seed"]), float(point["eps_s"]), n_events,
                                      n.get("targets", ["J"]), p["j"], p["delta"])
        return np.linspace(0.0, t_g, n_events + 1), d_vals, j_vals
    eps = float(point.get("eps_a", doc.get("noise", {}).get("eps_a", 0.05)))
    if kind == "switch_demo" and point.get("scheme") == "fixed":
        return np.array([0.0, (1.0 - eps) * t_g]), np.array([p["delta"]]), np.array([p["j"]])
    # the switched plan stops at the switch time τ, after one loop at Δ_before
    m = p["m_loops"]
    d_before = 4.0 * np.sqrt(m) * p["j"] * p["alpha"] / np.sqrt(1.0 - eps)
    tau = 2.0 * np.pi * m / d_before
    if kind == "switch_demo":
        return np.array([0.0, tau]), np.array([d_before]), np.array([p["j"]])
    if kind == "combined_fig4":  # -ε on J and on both detunings
        return (np.array([0.0, tau]), np.array([d_before * (1.0 - eps)]),
                np.array([p["j"] * (1.0 - eps)]))
    raise ValueError(f"no schedule for kind {kind!r}")


def effective_noise_bound(p: dict, delta: float, j: float, tau: float,
                          n_grid: int = 2001) -> float:
    """B_N: ∫ Σ r(⟨A⟩ + ΔA/2) dt on the coherent qubit-level run of one segment.

    In the S_x = s block the bus is coherent with Poisson mean s²|χ(t)|²; bus
    loss has A = n, bus dephasing A = n². The flip channel
    L = σx + i·e^{-2α²}σy has ⟨A⟩ + ΔA/2 <= (1 + e^{-2α²})² + e^{-2α²}, and
    the dephasing channel γα⁴·D[I] vanishes.
    """
    n, alpha = p["n_qubits"], p["alpha"]
    s, mult = sx_spectrum(n)
    w = mult / 2**n
    t = np.linspace(0.0, tau, n_grid)
    lam = np.outer(s**2, (2.0 * j * alpha / delta) ** 2 * 4.0 * np.sin(delta * t / 2.0) ** 2)
    n1 = w @ lam
    n2 = w @ (lam**2 + lam)
    n4 = w @ (lam**4 + 6.0 * lam**3 + 7.0 * lam**2 + lam)
    bus = (p["kappa0"] * (n1 + np.sqrt(np.maximum(n2 - n1**2, 0.0)) / 2.0)
           + p["gamma0"] * (n2 + np.sqrt(np.maximum(n4 - n2**2, 0.0)) / 2.0))
    ovl = np.exp(-2.0 * alpha**2)
    flip = p["kappa"] * alpha**2 / np.sqrt(1.0 - ovl**2) * ((1.0 + ovl) ** 2 + ovl)
    return float(trapezoid(bus, t) + n * flip * tau)


# --- single-mode building blocks ----------------------------------------------------


def destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def cat_vectors(dim: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(|C+>, |C->) as the program defines them: [D(α) ± D(-α)]|0> with the
    displacement exponentiated in the dim-level truncation, parity-projected."""
    a = destroy(dim)
    gen = alpha * (a.conj().T - a)
    dp = scipy.linalg.expm(gen)[:, 0]
    dm = scipy.linalg.expm(-gen)[:, 0]
    even, odd = dp + dm, dp - dm
    even[1::2] = 0.0
    odd[0::2] = 0.0
    return even / np.linalg.norm(even), odd / np.linalg.norm(odd)


def kerr_hamiltonian(kerr: float, omega_p: float, dim: int) -> np.ndarray:
    """-K a†²a² + Ωp(a² + a†²)."""
    a = destroy(dim)
    a2 = a @ a
    return -kerr * (a2.conj().T @ a2) + omega_p * (a2 + a2.conj().T)


def average_fidelity(m: np.ndarray) -> float:
    d = m.shape[0]
    return float((np.trace(m @ m.conj().T).real + abs(np.trace(m)) ** 2) / (d**2 + d))


def _magnus4(hfun, t0: float, t1: float, steps: int) -> np.ndarray:
    """Propagator U(t1, t0) from 4th-order Magnus steps (two Gauss points each)."""
    h = (t1 - t0) / steps
    c1, c2 = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
    u = np.eye(hfun(t0).shape[0], dtype=complex)
    for k in range(steps):
        t = t0 + k * h
        a1 = -1j * hfun(t + c1 * h)
        a2 = -1j * hfun(t + c2 * h)
        u = scipy.linalg.expm(h / 2.0 * (a1 + a2)
                              + (np.sqrt(3.0) / 12.0) * h**2 * (a2 @ a1 - a1 @ a2)) @ u
    return u


def dissipation_rate(kappa: float, gamma: float, moments) -> float:
    """Σ r(⟨A⟩ + ΔA/2) for loss (A = n) at rate κ and dephasing (A = n²) at γ."""
    n1, n2, n4 = moments
    return (kappa * (n1 + np.sqrt(max(n2 - n1**2, 0.0)) / 2.0)
            + gamma * (n2 + np.sqrt(max(n4 - n2**2, 0.0)) / 2.0))


def cat_prep_reference(kerr: float, alpha: float, t0: float, initial_fock: int, dim: int,
                       steps: int = 1000) -> float:
    """Fidelity of the ramped state to its target cat, from 4th-order Magnus steps.

    The ramp is Ωp(t)(a² + a†²) - Ka†²a² + Δq(t)a†a on t in [-t0, 0] with
    Ωp = Kα_t², α_t = α(t + t0)/t0 and Δq = -K sin(π(t + t0)/t0).
    """
    a = destroy(dim)
    a2 = a @ a
    quartic = a2.conj().T @ a2
    pair = a2 + a2.conj().T
    n_diag = np.arange(dim, dtype=float)

    def hfun(t):
        s = (t + t0) / t0
        return kerr * ((alpha * s) ** 2 * pair - quartic - np.sin(np.pi * s) * np.diag(n_diag))

    psi = _magnus4(hfun, -t0, 0.0, steps)[:, initial_fock]
    even, odd = cat_vectors(dim, alpha)
    target = even if initial_fock == 0 else odd
    return float(abs(np.vdot(target, psi)) ** 2)


def josephson_splitting(alpha: float, dim: int = 120) -> float:
    """⟨C+|Ō|C+⟩ - ⟨C-|Ō|C-⟩, Ō the Fock diagonal of cos[2α(a + a†)], taken
    numerically in a dim-level truncation, against Poisson cat populations."""
    a = destroy(dim)
    w, v = np.linalg.eigh(2.0 * alpha * (a + a.conj().T))
    diag = np.real(np.einsum("ij,j,ij->i", v, np.cos(w), v.conj()))
    n = np.arange(60)
    logp = -alpha**2 + 2.0 * n * np.log(alpha) - np.cumsum(np.log(np.maximum(n, 1)))
    p = np.exp(logp)
    ovl = np.exp(-2.0 * alpha**2)
    plus = np.where(n % 2 == 0, 2.0 * p / (1.0 + ovl), 0.0)
    minus = np.where(n % 2 == 1, 2.0 * p / (1.0 - ovl), 0.0)
    return float((plus - minus) @ diag[:60])


@dataclass(frozen=True)
class Drive:
    xi_p: float
    delta_q: float
    xi_j: float
    dtilde: float
    omega_1: float


def design_drive(target: str, alpha: float, t_gate: float, use_h_add: bool) -> Drive:
    """Hadamard (θ = π/4) or NOT (θ = π/2) in time t: Ξ = π/(2t), Ω1 = Ξ sin θ and
    Δ̃ = 2Ξ cos θ, mapped to a real single-photon drive ξ_p and either a detuning
    Δq or a Josephson amplitude ξ_J (CHANGES.md, test 11)."""
    theta = {"hadamard": np.pi / 4.0, "not": np.pi / 2.0}[target]
    xi = np.pi / (2.0 * t_gate)
    omega_1 = xi * np.sin(theta)
    dtilde = 2.0 * xi * np.cos(theta)
    a2 = alpha**2
    xi_p = omega_1 / (alpha * (np.sqrt(np.tanh(a2)) + np.sqrt(1.0 / np.tanh(a2))))
    if dtilde == 0.0:
        return Drive(xi_p, 0.0, 0.0, dtilde, omega_1)
    if use_h_add:
        return Drive(xi_p, 0.0, -dtilde / josephson_splitting(alpha), dtilde, omega_1)
    return Drive(xi_p, dtilde / (a2 * (1.0 / np.tanh(a2) - np.tanh(a2))), 0.0, dtilde, omega_1)


def single_qubit_reference(target: str, use_h_add: bool, t_gate: float, kerr: float,
                           alpha: float, dim: int, steps_per_period: int = 1000) -> float:
    """F̄ of the single-KPO gate against exp(-it[Δ̃σz/2 + Ω1σx]) on (|C->, |C+>).

    Static drives use one dense expm. With the Josephson term
    ξ_J·R(t)cos[2α(a + a†)]R(t)†, R = e^{iω_c t a†a}, the generator has the
    carrier period T = 2π/ω_c (ω_c = 800K), so U(t) = U(r)·U(T)^⌊t/T⌋ with
    both factors built from 4th-order Magnus steps.
    """
    drive = design_drive(target, alpha, t_gate, use_h_add)
    a = destroy(dim)
    h0 = (kerr_hamiltonian(kerr, kerr * alpha**2, dim)
          + drive.delta_q * np.diag(np.arange(dim, dtype=float))
          + drive.xi_p * (a + a.conj().T))
    even, odd = cat_vectors(dim, alpha)
    basis = np.stack([odd, even], axis=1)
    if not use_h_add or drive.xi_j == 0.0:
        u = scipy.linalg.expm(-1j * t_gate * h0)
    else:
        omega_c = 800.0 * kerr
        w, v = np.linalg.eigh(2.0 * alpha * (a + a.conj().T))
        cos_x = (v * np.cos(w)) @ v.conj().T
        n_diag = np.arange(dim)

        def hfun(t):
            rot = np.exp(1j * omega_c * t * n_diag)
            return h0 + drive.xi_j * (rot[:, None] * cos_x * rot.conj()[None, :])

        period = 2.0 * np.pi / omega_c
        cycles = int(np.floor(t_gate / period))
        rest = t_gate - cycles * period
        u = np.linalg.matrix_power(_magnus4(hfun, 0.0, period, steps_per_period), cycles)
        if rest > 0.0:
            rest_steps = max(1, int(np.ceil(steps_per_period * rest / period)))
            u = _magnus4(hfun, 0.0, rest, rest_steps) @ u
    h_eff = np.array([[drive.dtilde / 2.0, drive.omega_1], [drive.omega_1, -drive.dtilde / 2.0]])
    target_u = scipy.linalg.expm(-1j * t_gate * h_eff)
    return average_fidelity(target_u.conj().T @ (basis.conj().T @ u @ basis))


# --- reading and checking rows -------------------------------------------------------


def point_key(point: dict) -> tuple:
    """A grid point as the CSV writes it: floats by repr, everything else by str."""
    return tuple(repr(point[k]) if isinstance(point[k], float) else str(point[k])
                 for k in sorted(point))


def read_rows(csv_path: Path, grid_keys) -> dict[tuple, dict]:
    """CSV rows by grid point, as strings; a check converts the columns it reads."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return {tuple(row[k] for k in sorted(grid_keys)): row for row in csv.DictReader(fh)}


class Checker:
    """Checks every row of one workload's recipes; the references that do not
    depend on a round are made once, when the checker is built."""

    def __init__(self, recipes, docs: dict, refs):
        self.refs = refs
        self.expected = {}
        for r in recipes:
            doc = docs[r.name]
            kind = doc["kind"]
            for point in r.points():
                self.expected[(r.name, point_key(point))] = self._expectation(
                    r.name, doc, kind, point)
        self.recipes = recipes

    def _expectation(self, name: str, doc: dict, kind: str, point: dict) -> dict:
        c = doc["config"]
        if kind == "cat_prep":
            if resolve(c.get("kappa", 0.0)) or resolve(c.get("gamma", 0.0)):
                raise ValueError("the cat-prep reference is for the lossless ramp")
            f = cat_prep_reference(
                resolve(c.get("kerr", 1.0)), float(point.get("alpha", c.get("alpha", 2.0))),
                float(point["t0"]), int(point["initial_fock"]), int(c.get("dim", 30)))
            return {"kind": kind, "f": f}
        if kind == "single_qubit":
            f = single_qubit_reference(str(point["target"]), bool(point["use_h_add"]),
                                       float(point["t_gate"]), resolve(c.get("kerr", 1.0)),
                                       float(c.get("alpha", 2.0)), int(c.get("dim", 40)))
            return {"kind": kind, "f": f}
        p = gate_params(doc, point)
        times, delta, j = row_schedule(doc, point, p)
        chi, beta = loop_integrals(times, delta, j, p["alpha"])
        exp = {"kind": kind, "chi": abs(chi), "beta": beta}
        f_avg, f_out = closed_form_fidelities(p["n_qubits"], chi, beta)
        if kind in ("switch_demo", "noise_stochastic"):
            exp["f_avg"] = f_avg
        elif kind == "combined_fig4":
            exp["f_coh"] = f_out
            exp["bound"] = effective_noise_bound(p, delta[0], j[0], times[-1])
        else:
            exp["ref"] = self.refs.lookup(name, point, p)
        return exp

    def check_round(self, csv_dir: Path) -> tuple[int, list[str], list[str]]:
        """(attempted, failed points, unsound outputs) for one round's CSVs.

        A point fails when its row is missing or misses its check. An output is
        unsound when a CSV holds a row for no grid point or has no manifest.
        """
        attempted, failures, unsound = 0, [], []
        for r in self.recipes:
            keys = sorted(r.grid)
            path = csv_dir / f"{r.name}.csv"
            rows = read_rows(path, keys) if path.exists() else {}
            if path.exists() and not path.with_suffix(".manifest.json").exists():
                unsound.append(f"{r.name}: CSV without a manifest")
            expected = {point_key(p) for p in r.points()}
            unsound += [f"{r.name}: row {k} is no grid point" for k in rows if k not in expected]
            for point in r.points():
                attempted += 1
                row = rows.get(point_key(point))
                why = "no row" if row is None else self._check_row(r.name, point, row, rows)
                if why:
                    failures.append(f"{r.name} {point}: {why}")
        return attempted, failures, unsound

    def _check_row(self, name: str, point: dict, raw: dict, rows: dict) -> str | None:
        """None if the row passes its check, else why it fails."""
        try:
            return self._compare(self.expected[(name, point_key(point))], point, raw, rows)
        except (TypeError, ValueError, KeyError) as exc:
            return f"unreadable row ({exc!r})"

    @staticmethod
    def _compare(exp, point, raw, rows) -> str | None:
        row = {k: float(raw[k]) for k in ("f_avg", "f_out", "p_c", "chi_residual", "beta_total")
               if raw.get(k) not in ("", None)}
        kind = exp["kind"]

        def off(value, ref, tol, label):
            if not abs(value - ref) <= tol:
                return f"{label} {value!r} differs from {ref!r} by more than {tol:g}"
            return None

        if kind == "cat_prep":
            return off(row["f_out"], exp["f"], TOL_PREP, "F")
        if kind == "single_qubit":
            if not point["use_h_add"]:
                return off(row["f_avg"], exp["f"], TOL_STATIC, "F̄")
            msg = off(row["f_avg"], exp["f"], TOL_JOSEPHSON, "F̄")
            if msg or point["target"] != "not":
                return msg
            twin = rows.get(point_key({**point, "use_h_add": False}))
            if twin is None:
                return "no NOT row without use_h_add to compare with"
            return off(row["f_avg"], float(twin["f_avg"]), TOL_SAME, "NOT with use_h_add")
        msg = (off(row["chi_residual"], exp["chi"], TOL_LOOP, "|χ|")
               or off(row["beta_total"], exp["beta"], TOL_LOOP, "β"))
        if msg:
            return msg
        if kind == "switch_demo":
            return off(row["f_avg"], exp["f_avg"], TOL_CLOSED, "F̄")
        if kind == "noise_stochastic":
            return off(row["f_avg"], exp["f_avg"], TOL_NOISY, "F̄")
        if kind == "combined_fig4":
            f, lo, hi = row["f_out"], exp["f_coh"] - exp["bound"], exp["f_coh"]
            if not lo <= f <= hi:
                return f"F_out {f!r} outside [F_coh - B_N, F_coh] = [{lo!r}, {hi!r}]"
            return None
        ref = exp["ref"]
        if kind == "gate_fidelity_sweep":
            return off(row["f_avg"], ref["f_avg"], TOL_REF, "F̄")
        # decoherence_sweep: F_out <= P_C <= 1 and F_out >= F_coh - B on the reference
        f, p_c = row["f_out"], row["p_c"]
        if not f <= p_c <= 1.0 + TOL_TRACE:
            return f"F_out {f!r}, P_C {p_c!r} break F_out <= P_C <= 1"
        if not f >= ref["f_out"] - ref["bound"]:
            return f"F_out {f!r} below F_coh - B = {ref['f_out'] - ref['bound']!r}"
        return None
