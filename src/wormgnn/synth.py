"""Synthetic worms: per-individual linear mixtures of a shared labeled latent cycle.

Each worm observes the same low-dimensional limit cycle through its own
orthonormal mixing matrix, so recordings from different individuals are
exact rotations of one manifold plus observation noise.  Labels derive
from the latent phase alone and are therefore identical across worms that
share a latent seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StateLabel, WormRecording, compute_derivative, normalize_recording
from .rng import derive_rng
from .schema import check_field_types

# timesteps per revolution of the latent cycle
CYCLE_PERIOD = 64.0

# Individuals share most of their mixing structure (named neurons play similar
# roles across worms) and deviate by a seeded perturbation of this relative
# weight before re-orthonormalization.
MIXING_DIVERSITY = 0.5

_STATE_CYCLE_2 = [StateLabel.FORWARD, StateLabel.SUSTAINED_REVERSE]
_STATE_CYCLE_4 = [
    StateLabel.FORWARD,
    StateLabel.SUSTAINED_REVERSE,
    StateLabel.DORSAL_TURN,
    StateLabel.VENTRAL_TURN,
]


@dataclass
class SynthConfig:
    n_neurons: int
    n_timesteps: int
    n_states: int
    latent_dim: int = 3
    noise_std: float = 0.0
    mixing_seed: int = 0  # per worm
    latent_seed: int = 0  # shared across worms
    angular_velocity_jitter: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.n_states not in (2, 4):
            raise ValueError(f"SynthConfig: n_states must be 2 or 4, got {self.n_states}")
        if self.latent_dim < 2:
            raise ValueError(f"SynthConfig: latent_dim must be >= 2, got {self.latent_dim}")
        if self.noise_std < 0:
            raise ValueError(f"SynthConfig: noise_std must be >= 0, got {self.noise_std}")
        if self.n_neurons < self.latent_dim:
            raise ValueError(
                f"SynthConfig: n_neurons ({self.n_neurons}) < latent_dim ({self.latent_dim}); "
                "mixing matrix needs full column rank"
            )
        if self.n_timesteps < 2:
            raise ValueError(f"SynthConfig: n_timesteps must be >= 2, got {self.n_timesteps}")


def phase_to_arc(phase: float, n_states: int) -> int:
    """Index of the equal arc of [0, 2pi) containing ``phase``."""
    width = 2.0 * np.pi / n_states
    return int((phase % (2.0 * np.pi)) // width) % n_states


def latent_phases(cfg: SynthConfig) -> np.ndarray:
    """Phase trajectory with jittered angular velocity, shared per latent seed."""
    rng = derive_rng(cfg.latent_seed, "latent-phase")
    omega = 2.0 * np.pi / CYCLE_PERIOD
    increments = omega * (1.0 + cfg.angular_velocity_jitter * rng.standard_normal(cfg.n_timesteps - 1))
    phases = np.empty(cfg.n_timesteps)
    phases[0] = 0.0
    np.cumsum(increments, out=phases[1:])
    return phases


def latent_trajectory(cfg: SynthConfig) -> np.ndarray:
    """Limit cycle in latent_dim dimensions: alternating cos/sin harmonics of the phase."""
    phases = latent_phases(cfg)
    latent = np.empty((cfg.latent_dim, cfg.n_timesteps))
    for j in range(cfg.latent_dim):
        harmonic = j // 2 + 1
        latent[j] = np.cos(harmonic * phases) if j % 2 == 0 else np.sin(harmonic * phases)
    return latent


def mixing_matrix(cfg: SynthConfig) -> np.ndarray:
    """Orthonormal n_neurons x latent_dim mixing, loosely shared across individuals.

    QR of (shared Gaussian + MIXING_DIVERSITY * per-worm Gaussian): worms with
    one latent seed observe the same manifold through correlated but distinct
    rotations, so each neuron keeps a recognizable role across individuals.
    """
    shared = derive_rng(cfg.latent_seed, "mixing-shared").standard_normal(
        (cfg.n_neurons, cfg.latent_dim))
    individual = derive_rng(cfg.mixing_seed, "mixing").standard_normal(
        (cfg.n_neurons, cfg.latent_dim))
    q, r = np.linalg.qr(shared + MIXING_DIVERSITY * individual)
    # fix column signs so the factorization is unique
    return q * np.sign(np.diag(r))


def generate_worm(cfg: SynthConfig, worm_id: str | None = None, dataset_tag: str = "synthetic") -> WormRecording:
    """One normalized synthetic recording.

    Worms sharing latent_seed have identical label sequences; different
    mixing seeds change the traces but never the labels.
    """
    if worm_id is None:
        worm_id = f"synth-{cfg.mixing_seed:03d}"
    phases = latent_phases(cfg)
    latent = latent_trajectory(cfg)
    mixing = mixing_matrix(cfg)

    noise_rng = derive_rng(cfg.mixing_seed, "observation-noise")
    traces = mixing @ latent
    if cfg.noise_std > 0:
        traces = traces + cfg.noise_std * noise_rng.standard_normal(traces.shape)

    cycle = _STATE_CYCLE_2 if cfg.n_states == 2 else _STATE_CYCLE_4
    labels = [cycle[phase_to_arc(p, cfg.n_states)] for p in phases]

    derivatives = np.apply_along_axis(compute_derivative, 1, traces)
    rec = WormRecording(
        worm_id=worm_id,
        dataset_tag=dataset_tag,
        sample_period_s=1.0 / 3.0,
        neuron_names=[f"SN{i:02d}" for i in range(cfg.n_neurons)],
        traces=traces,
        derivatives=derivatives,
        labels=labels,
    )
    return normalize_recording(rec)
