"""Scenario configs, on-disk campaigns, and the staged processing pipeline.

A campaign directory holds one .maiq record file per grid position, raw
samples only, plus a JSON manifest: the full scenario config and the
sha256 of every record file. The scenario and a record's index derive the
rest of its metadata (file name, position, noise seed, length and sample
interval), so the manifest is enough to re-derive everything the
estimator needs without touching the channel model that produced the data.
A tone record is a time-domain capture. A sounding record holds no
time-domain frame: build_sounding_campaign draws the statistics a
SoundingCampaign keeps (h_freq and the payload snapshots) directly, with
the joint noise law the frames would give them, and each sounding record
holds one position's h_freq row followed by its snapshot row.

run_pipeline() chains sound -> estimate -> measure -> optimize -> export
through content-addressed stage directories: each stage directory name
embeds a hash of everything the stage depends on, so re-running with the
same inputs is a cache hit and changing any input re-runs exactly the
stages downstream of the change. The STAGES table is the one description
of the stages: in run order, each entry names its upstream stages (export
follows every other requested stage), its artifacts relative to the stage
directory, and its body. The CLI's estimate and optimize commands run the
same code as those stages' bodies (estimate_campaign, optimize_on_slide_track).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    DbMap,
    MovementRegion,
    PathStateInfo,
    gain_map,
    read_grid_csv,
    response_factors,
)
from .codec import ConfigError, JsonCodec, decode, encode
from .estimator import (
    AngleGrid,
    EstimatedPsi,
    SoundingCampaign,
    compute_pas,
    compute_pds,
    estimate_psi,
)
from .mover import MoveResult, SimulatedSlideTrack, optimize
from .powermeter import sweep_measure
from .signals import (
    NoiseSpec,
    OfdmNumerology,
    add_noise,
    apply_channel,
    derive_seed,
    gen_tone,
    qpsk_symbols,
    read_iq_record,
    write_iq_record,
)

MAX_RECORD_SAMPLES = 2**24
"""Largest tone record or OFDM frame a ScenarioConfig may ask for (the paper's frame is 336,600 samples)."""

MAX_SNAPSHOTS = 128
"""Payload snapshots a sounding campaign keeps per position for the PAS."""

MAX_CAMPAIGN_BYTES = 2**31
"""Largest sounding campaign a ScenarioConfig may ask for: Q x (I + MAX_SNAPSHOTS) complex128 statistics.

The paper's largest, 10,201 positions at 3168 subcarriers, is 538 MB.
"""

MANIFEST_FORMAT = "maiq-campaign/4"
MANIFEST_NAME = "manifest.json"


class StageError(RuntimeError):
    """A pipeline stage failed. The offending stage name is in .stage."""

    def __init__(self, stage: str, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


def _atomic_write_bytes(path, data: bytes) -> None:
    # write-then-rename so a crashed run never leaves a truncated file
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_json(path, obj) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class ScenarioConfig(JsonCodec):
    """Everything needed to reproduce a campaign, minus the channel itself.

    region is the fine grid the power meter and mover work on;
    sounding_region is the (usually coarser) grid the OFDM sounder sweeps.
    noise_power is the per-sample complex noise variance applied at whatever
    sample rate the active mode runs at. tx_position_m is instrument
    metadata carried through manifests; the planar model never consumes it.
    """

    carrier_hz: float
    bandwidth_hz: float
    tx_position_m: tuple[float, float, float]
    region: MovementRegion
    sounding_region: MovementRegion
    numerology: OfdmNumerology
    noise_power: float
    tone_f0_hz: float
    samples_per_measurement: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "tx_position_m", tuple(float(v) for v in self.tx_position_m))
        if len(self.tx_position_m) != 3:
            raise ConfigError("tx_position_m must be an (x, y, z) triple")
        if self.carrier_hz <= 0.0:
            raise ConfigError(f"carrier_hz must be > 0: {self.carrier_hz}")
        if self.bandwidth_hz <= 0.0:
            raise ConfigError(f"bandwidth_hz must be > 0: {self.bandwidth_hz}")
        if self.numerology.occupied_bandwidth_hz > self.bandwidth_hz * (1 + 1e-12):
            raise ConfigError(
                f"numerology occupies {self.numerology.occupied_bandwidth_hz} Hz, "
                f"more than the configured bandwidth {self.bandwidth_hz} Hz"
            )
        if abs(self.tone_f0_hz) >= self.bandwidth_hz / 2.0:
            raise ConfigError(f"tone_f0_hz {self.tone_f0_hz} is at or above Nyquist for {self.bandwidth_hz} Hz")
        if self.noise_power < 0.0:
            raise ConfigError(f"noise_power must be >= 0: {self.noise_power}")
        if self.samples_per_measurement < 2:
            raise ConfigError("samples_per_measurement must be >= 2")
        for name, count in (
            ("samples_per_measurement", self.samples_per_measurement),
            ("numerology.frame_samples", self.numerology.frame_samples),
        ):
            if count > MAX_RECORD_SAMPLES:
                raise ConfigError(f"{name} {count} exceeds the {MAX_RECORD_SAMPLES}-sample cap per record")
        ny, nx = self.sounding_region.shape
        size = ny * nx * (self.numerology.num_subcarriers + MAX_SNAPSHOTS) * 16
        if size > MAX_CAMPAIGN_BYTES:
            raise ConfigError(f"a {ny} x {nx} sounding_region holds {size} bytes of statistics, "
                              f"over the {MAX_CAMPAIGN_BYTES}-byte cap per campaign")
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool) or self.master_seed < 0:
            raise ConfigError(f"master_seed must be a non-negative integer: {self.master_seed!r}")

    def canonical_bytes(self) -> bytes:
        return _canonical_bytes(self.to_json_dict())

    def scenario_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()[:12]

    def save(self, path) -> None:
        _atomic_write_json(path, self.to_json_dict())

    @staticmethod
    def load(path) -> "ScenarioConfig":
        return ScenarioConfig.from_json_dict(_load_json(path))


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such file: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError(f"{p} nests too deeply to parse") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{p} must hold a JSON object")
    return data


def psi_from_json_dict(data: dict) -> PathStateInfo:
    """Parse path state from JSON, accepting estimator output as well.

    The estimator adds prominence_db per path and a top-level grid_step_deg;
    both are dropped here so an estimate file can seed a simulation.
    large_scale_gain and normalized default to 1 and false.
    """
    data = {"large_scale_gain": 1.0, "normalized": False, **data}
    data.pop("grid_step_deg", None)
    if isinstance(data.get("paths"), list):
        data["paths"] = [
            {k: v for k, v in p.items() if k != "prominence_db"} if isinstance(p, dict) else p
            for p in data["paths"]
        ]
    return decode(PathStateInfo, data, "PathStateInfo")


def load_psi(path) -> PathStateInfo:
    return psi_from_json_dict(_load_json(path))


def save_psi(path, psi: PathStateInfo) -> None:
    _atomic_write_json(path, encode(psi))


# ---------------------------------------------------------------------------
# campaign synthesis


def _check_carrier(cfg: ScenarioConfig, psi: PathStateInfo) -> None:
    if abs(cfg.carrier_hz - psi.carrier_hz) > 1e-3:
        raise ConfigError(
            f"scenario carrier {cfg.carrier_hz} Hz and path state carrier {psi.carrier_hz} Hz disagree"
        )


def iter_tone_records(cfg: ScenarioConfig, psi: PathStateInfo) -> Iterator[np.ndarray]:
    """Yield one noisy tone capture per point of cfg.region, row-major.

    Point q's noise is seeded by derive_seed(master_seed, "tone", q).
    """
    _check_carrier(cfg, psi)
    tone = gen_tone(cfg.tone_f0_hz, cfg.samples_per_measurement, 1.0 / cfg.bandwidth_hz)
    noise = NoiseSpec(cfg.noise_power, cfg.bandwidth_hz)
    for i, pos in enumerate(cfg.region.positions()):
        yield add_noise(apply_channel(tone, psi, pos), noise, derive_seed(cfg.master_seed, "tone", i))


def _tx_symbols(cfg: ScenarioConfig) -> np.ndarray:
    """The QPSK grid every sounding frame of cfg carries, seeded by derive_seed(master_seed, "tx")."""
    num = cfg.numerology
    return qpsk_symbols(num.num_subcarriers, num.num_symbols, derive_seed(cfg.master_seed, "tx"))


def _snapshot_indices(numerology: OfdmNumerology) -> np.ndarray:
    """Frame indices of up to MAX_SNAPSHOTS payload samples, evenly spread, CP samples excluded."""
    num = numerology
    sym = num.samples_per_symbol
    payload_idx = np.concatenate(
        [m * sym + num.cp_samples + np.arange(num.num_subcarriers) for m in range(num.num_symbols)]
    )
    if MAX_SNAPSHOTS < len(payload_idx):
        sel = np.unique(np.round(np.linspace(0, len(payload_idx) - 1, MAX_SNAPSHOTS)).astype(int))
        payload_idx = payload_idx[sel]
    return payload_idx


def build_sounding_campaign(cfg: ScenarioConfig, psi: PathStateInfo) -> SoundingCampaign:
    """Synthesize a sounding campaign in memory: its statistics directly, no time-domain frames.

    The campaign keeps per position only h_freq and MAX_SNAPSHOTS payload
    snapshots, and both are linear in the channel response H (Q, I) plus
    the frames' white noise of variance s2 = cfg.noise_power. So they are
    drawn with that noise's exact joint law (Gaussian conditioning; Kay,
    Fundamentals of Statistical Signal Processing vol. 1, ch. 10):

      snapshots = H T + z,   z ~ CN(0, s2), the noise of the snapshot samples
      h_freq    = H + A z + w,   w ~ CN(0, s2 (I/M - A A^H)), independent of z

    T[i, s] = tx[i, m_s] exp(j 2 pi i k_s / I) makes payload sample k_s of
    symbol m_s from the subcarriers. The cross-covariance of h_freq's noise
    with z over s2 is A[i, s] = exp(-j 2 pi i k_s / I) / (M I tx[i, m_s]),
    and since the QPSK symbols have |tx|^2 = 1/I, A = conj(T) / M: T is the
    only (I, n_snap) matrix kept. w is drawn from I white normals through
    an eigendecomposition of the (n_snap, n_snap) Gram matrix T^H T, one per
    campaign. H T = S (C T) for the (Q, L) steering phases S and (L, I) path
    coefficients C of response_factors, so the clean snapshots cost a rank-L
    product. Position q draws z, then those I normals, from
    derive_seed(master_seed, "sound", q), so its statistics do not depend on
    the sweep's size or order. synthesize_campaign writes exactly these
    statistics to disk.
    """
    _check_carrier(cfg, psi)
    if np.any(psi.delays_s > cfg.numerology.cp_duration_s):
        raise ConfigError("path delay exceeds the cyclic prefix; pick a longer CP")
    num = cfg.numerology
    i_n, m_n = num.num_subcarriers, num.num_symbols
    sym, k = np.divmod(_snapshot_indices(num), num.samples_per_symbol)
    k -= num.cp_samples
    subcarrier = np.arange(i_n)
    # T: (I, n_snap) exp(j 2 pi (i k mod I) / I), looked up in the table of the I roots of unity, times tx
    synth = np.exp(2j * np.pi * subcarrier / i_n)[np.outer(subcarrier, k) % i_n]
    synth *= _tx_symbols(cfg)[:, sym]
    # A^H A = conj(T^H T) / M^2 = V diag(lam) V^H with lam = mu / M^2, V = conj(U), for T^H T = U diag(mu) U^H
    mu, u = np.linalg.eigh(synth.conj().T @ synth)
    lam = mu / m_n**2  # in [0, 1/M]
    # w = g / sqrt(M) + A V diag(c) V^H A^H g has covariance I/M - A A^H for white g
    # when lam c^2 + 2 c / sqrt(M) = -1; this root stays finite as lam -> 0.
    # With A = conj(T) / M and g' = g / sqrt(M) that is w = g' + (g' T X) T^H / M for X = U diag(c / sqrt(M)) U^H
    c = -1.0 / (np.sqrt(np.maximum(1.0 / m_n - lam, 0.0)) + 1.0 / math.sqrt(m_n))
    x = (u * (c / math.sqrt(m_n))) @ u.conj().T
    scale = math.sqrt(cfg.noise_power / 2.0)

    positions = cfg.sounding_region.positions_array()
    q_n, n_snap = len(positions), len(k)
    steer_all, coeff = response_factors(psi, positions, subcarrier * num.subcarrier_spacing_hz)
    clean_snaps = coeff @ synth  # C T, (L, n_snap)
    h_freq = np.empty((q_n, i_n), dtype=np.complex128)
    snaps = np.empty((q_n, n_snap), dtype=np.complex128)
    # equal blocks of about 16 MiB of noise each; none has a single row, which
    # numpy would multiply by another kernel, so rows do not depend on blocking
    n_blocks = min(-(-q_n * (n_snap + i_n) // (1 << 20)), q_n // 2)
    bounds = np.linspace(0, q_n, max(n_blocks, 1) + 1).astype(int)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        noise = np.empty((stop - start, n_snap + i_n), dtype=np.complex128)
        for q, row in enumerate(noise, start):
            np.random.default_rng(derive_seed(cfg.master_seed, "sound", q)).standard_normal(out=row.view(np.float64))
        z, g = noise[:, :n_snap], noise[:, n_snap:]
        z *= scale
        g *= scale / math.sqrt(m_n)  # g' = g / sqrt(M)
        steer = steer_all[start:stop]
        snaps[start:stop] = steer @ clean_snaps + z
        y = z + (g @ synth) @ x
        out = h_freq[start:stop]
        np.matmul(steer, coeff, out=out)
        out += g
        # y T^H / M = conj((conj(y) / M) T^T): the transposed T goes to BLAS as a flag, not a copy
        y_th = (np.conj(y) / m_n) @ synth.T
        out += np.conj(y_th, out=y_th)
    return SoundingCampaign(cfg.sounding_region, num, cfg.carrier_hz, h_freq, snaps)


def _record_name(q: int) -> str:
    return f"rec_{q:06d}.maiq"


@dataclass(frozen=True)
class CampaignManifest(JsonCodec):
    """Index of an on-disk campaign: its mode, its scenario, and the sha256 of every record file.

    Record q sits at point q of the region, row-major; sha256[q] is the hex
    digest of its whole file.
    """

    mode: str
    scenario: ScenarioConfig
    sha256: tuple[str, ...]

    def __post_init__(self):
        if self.mode not in ("tone", "ofdm"):
            raise ConfigError(f"campaign mode must be 'tone' or 'ofdm': {self.mode!r}")
        if len(self.sha256) != self.region.num_points:
            raise ConfigError(f"manifest holds {len(self.sha256)} record digests, "
                              f"its region has {self.region.num_points} points")

    @property
    def region(self) -> MovementRegion:
        return self.scenario.sounding_region if self.mode == "ofdm" else self.scenario.region

    def to_json_dict(self) -> dict:
        return {**encode(self), "format": MANIFEST_FORMAT, "scenario_hash": self.scenario.scenario_hash()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignManifest":
        fields = {k: v for k, v in data.items() if k not in ("format", "scenario_hash")}
        if data.get("format") != MANIFEST_FORMAT:
            raise ConfigError(f"unsupported manifest format: {data.get('format')!r}")
        manifest = super().from_json_dict(fields)
        if data.get("scenario_hash") != manifest.scenario.scenario_hash():
            raise ConfigError("manifest scenario_hash does not match its scenario")
        return manifest

    def save(self, dir_path) -> None:
        _atomic_write_json(Path(dir_path) / MANIFEST_NAME, self.to_json_dict())

    @staticmethod
    def load(dir_path) -> "CampaignManifest":
        return CampaignManifest.from_json_dict(_load_json(Path(dir_path) / MANIFEST_NAME))


def synthesize_campaign(cfg: ScenarioConfig, psi: PathStateInfo, mode: str, out_dir) -> Path:
    """Write a full campaign (records plus manifest) under out_dir.

    A tone campaign holds the time-domain captures; an ofdm campaign holds
    the statistics of build_sounding_campaign(cfg, psi), one position per
    record. Record files land first and the manifest last, each via rename,
    so a directory with a manifest is always a complete campaign.
    """
    # the tone generator checks lazily; a refused campaign must leave no directory
    if mode == "tone":
        _check_carrier(cfg, psi)
        payloads = iter_tone_records(cfg, psi)
    elif mode == "ofdm":
        campaign = build_sounding_campaign(cfg, psi)
        payloads = (np.concatenate([h, snap]) for h, snap in zip(campaign.h_freq, campaign.samples_matrix()))
    else:
        raise ConfigError(f"campaign mode must be 'tone' or 'ofdm': {mode!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    digests = []
    for q, samples in enumerate(payloads):
        tmp = out / (_record_name(q) + ".tmp")
        write_iq_record(tmp, samples)
        os.replace(tmp, out / _record_name(q))
        digests.append(hashlib.sha256(np.ascontiguousarray(samples, dtype="<c16")).hexdigest())
    CampaignManifest(mode=mode, scenario=cfg, sha256=tuple(digests)).save(out)
    return out


def _record_samples(cfg: ScenarioConfig, mode: str) -> int:
    """Values in each record file of a campaign of cfg: a tone capture, or one position's I + n_snap statistics."""
    if mode == "tone":
        return cfg.samples_per_measurement
    return cfg.numerology.num_subcarriers + len(_snapshot_indices(cfg.numerology))


def _read_records(dir_path, manifest: CampaignManifest) -> Iterator[np.ndarray]:
    """Load the campaign's record payloads one at a time, checking each file against its digest.

    Record q belongs to point q of the manifest's region, row-major; the
    scenario gives its file name and length (_record_samples).
    """
    n = _record_samples(manifest.scenario, manifest.mode)
    for q, digest in enumerate(manifest.sha256):
        path = Path(dir_path) / _record_name(q)
        if not path.exists():
            raise ConfigError(f"manifest lists {path.name} but the file is missing")
        samples = read_iq_record(path, n)
        if hashlib.sha256(samples).hexdigest() != digest:  # the file is exactly the <c16 samples
            raise ConfigError(f"{path.name}: sha256 disagrees with the manifest")
        yield samples


def load_campaign(dir_path) -> tuple[CampaignManifest, list[np.ndarray]]:
    """Load a campaign directory's record payloads, row-major over its region, checking every one against the manifest."""
    manifest = CampaignManifest.load(dir_path)
    return manifest, list(_read_records(dir_path, manifest))


def load_sounding_campaign(dir_path) -> tuple[CampaignManifest, SoundingCampaign]:
    """Stream an on-disk ofdm campaign into a SoundingCampaign, one record file at a time.

    Each record holds its position's h_freq row, then its snapshot row; the
    campaign equals the build_sounding_campaign one that was written.
    """
    manifest = CampaignManifest.load(dir_path)
    if manifest.mode != "ofdm":
        raise ConfigError(f"expected an ofdm campaign, found mode {manifest.mode!r}")
    cfg = manifest.scenario
    num = cfg.numerology
    i_n, q_n = num.num_subcarriers, manifest.region.num_points
    h_freq = np.empty((q_n, i_n), dtype=np.complex128)
    snaps = np.empty((q_n, _record_samples(cfg, "ofdm") - i_n), dtype=np.complex128)
    for q, samples in enumerate(_read_records(dir_path, manifest)):
        h_freq[q], snaps[q] = samples[:i_n], samples[i_n:]
    return manifest, SoundingCampaign(manifest.region, num, cfg.carrier_hz, h_freq, snaps)


def measure_campaign(dir_path) -> DbMap:
    """Meter every record of an on-disk tone campaign with the single-bin DFT, one record file at a time.

    Each record reads the bin of the manifest's tone_f0_hz on the meter's
    derived grid, as a zero-padded FFT of the record would.
    """
    manifest = CampaignManifest.load(dir_path)
    if manifest.mode != "tone":
        raise ConfigError(f"expected a tone campaign, found mode {manifest.mode!r}")
    cfg = manifest.scenario
    return sweep_measure(manifest.region, _read_records(dir_path, manifest), 1.0 / cfg.bandwidth_hz, cfg.tone_f0_hz)


def optimize_on_slide_track(
    cfg: ScenarioConfig,
    psi: PathStateInfo,
    est: PathStateInfo,
    budget: int,
    refine_step_m: float | None,
) -> MoveResult:
    """Two-stage placement over cfg.region on a simulated slide track.

    The track measures the true channel psi with the scenario's tone and
    noise, seeded from its master seed; est drives the coarse stage. The
    refinement starts at refine_step_m, or at the coarser grid step when it is None.
    """
    track = SimulatedSlideTrack(
        psi=psi,
        region=cfg.region,
        noise=NoiseSpec(cfg.noise_power, cfg.bandwidth_hz),
        f0_hz=cfg.tone_f0_hz,
        num_samples=cfg.samples_per_measurement,
        master_seed=derive_seed(cfg.master_seed, "mover"),
    )
    step = refine_step_m if refine_step_m is not None else max(cfg.region.x_step_m, cfg.region.y_step_m)
    return optimize(est, cfg.region, track, refine_step_m=step, budget=budget)


# ---------------------------------------------------------------------------
# pipeline


def estimate_campaign(
    campaign_dir, grid: AngleGrid, max_paths: int, prominence_db: float, est_path, pas_path=None, pds_path=None
) -> EstimatedPsi:
    """Estimate path state from an on-disk sounding campaign and write it to est_path.

    pas_path and pds_path, when given, also receive the angular and delay
    spectra as CSV. Both `masim estimate` and the estimate stage run this.
    """
    _, campaign = load_sounding_campaign(campaign_dir)
    pas = compute_pas(campaign, grid)
    est = estimate_psi(campaign, grid, max_paths=max_paths, prominence_db=prominence_db, pas=pas)
    _atomic_write_json(est_path, est.to_json_dict())
    if pas_path is not None:
        pas.to_csv(pas_path)
    if pds_path is not None:
        compute_pds(campaign).to_csv(pds_path)
    return est


def _sound(sdir, cfg, psi, inputs):
    synthesize_campaign(cfg, psi, "ofdm", sdir / "campaign")


def _estimate(sdir, cfg, psi, inputs, angle_grid, max_paths, prominence_db):
    estimate_campaign(inputs["sounding_campaign"], AngleGrid(*angle_grid), max_paths, prominence_db,
                      sdir / "estimated_psi.json", sdir / "pas.csv", sdir / "pds.csv")


def _measure(sdir, cfg, psi, inputs):
    synthesize_campaign(cfg, psi, "tone", sdir / "campaign")
    measure_campaign(sdir / "campaign").to_csv(sdir / "power_map.csv")


def _optimize(sdir, cfg, psi, inputs, budget, refine_step_m):
    est = load_psi(inputs["estimated_psi"])
    res = optimize_on_slide_track(cfg, psi, est, budget=budget, refine_step_m=refine_step_m)
    _atomic_write_json(sdir / "move_result.json", res.to_json_dict())


def _export(sdir, cfg, psi, inputs):
    gain_map(psi, cfg.region).to_csv(sdir / "gain_map.csv")
    for src in inputs.values():
        if src.is_file():
            shutil.copyfile(src, sdir / src.name)


ESTIMATE_PARAMS = {"angle_grid": [0.5, 0.5], "max_paths": 8, "prominence_db": 20.0}
"""The estimate stage's fixed settings, hashed with its other inputs; also `masim estimate`'s defaults."""


@dataclass(frozen=True)
class Stage:
    """One pipeline stage. upstream None means every other requested stage;
    artifacts map names to paths relative to the stage directory. The body
    runs as body(stage_dir, cfg, psi, inputs, **params): inputs are the
    upstream stages' artifacts, params the stage's hashed parameters.
    """

    upstream: tuple[str, ...] | None
    artifacts: dict
    body: Callable


STAGES = {
    "sound": Stage((), {"sounding_campaign": "campaign"}, _sound),
    "estimate": Stage(
        ("sound",), {"estimated_psi": "estimated_psi.json", "pas": "pas.csv", "pds": "pds.csv"}, _estimate
    ),
    "measure": Stage((), {"tone_campaign": "campaign", "power_map": "power_map.csv"}, _measure),
    "optimize": Stage(("estimate",), {"move_result": "move_result.json"}, _optimize),
    "export": Stage(None, {"export_dir": ".", "gain_map": "gain_map.csv"}, _export),
}


@dataclass
class PipelineResult:
    stage_dirs: dict
    artifacts: dict
    cached: set


def _upstream(name: str, requested) -> list[str]:
    ups = STAGES[name].upstream
    return sorted(s for s in requested if s != name) if ups is None else list(ups)


def run_pipeline(
    cfg: ScenarioConfig,
    psi: PathStateInfo,
    stages,
    out_dir,
    optimize_budget: int = 50,
) -> PipelineResult:
    """Run the requested stages (upstream stages pulled in automatically) under out_dir.

    Stage directories are content-addressed: <stage>-<hash> where the hash
    covers the campaign format, the scenario, the path state, the stage
    parameters, and the hashes of upstream stages. A directory holding a .complete marker is
    trusted as a cache hit and not recomputed.
    """
    requested = set(stages)
    unknown = requested - set(STAGES)
    if unknown:
        raise ConfigError(f"unknown pipeline stages: {sorted(unknown)}")
    if optimize_budget < 1:
        raise ConfigError(f"optimize_budget must be >= 1: {optimize_budget}")
    # upstream stages come earlier in STAGES, so one backward pass closes the set
    for name in reversed(STAGES):
        if name in requested:
            requested.update(_upstream(name, requested))

    params = {
        "sound": {},
        "measure": {},
        "estimate": ESTIMATE_PARAMS,
        "optimize": {"budget": optimize_budget, "refine_step_m": None},
        "export": {},
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(stage_dirs={}, artifacts={}, cached=set())
    hashes = {}
    for name, stage in STAGES.items():
        if name not in requested:
            continue
        parents = _upstream(name, requested)
        payload = {
            "stage": name,
            "format": MANIFEST_FORMAT,
            "scenario": cfg.to_json_dict(),
            "psi": encode(psi),
            "params": params[name],
            "parents": [hashes[p] for p in parents],
        }
        digest = hashlib.sha256(_canonical_bytes(payload)).hexdigest()[:12]
        hashes[name] = digest
        sdir = out / f"{name}-{digest}"
        result.stage_dirs[name] = sdir
        marker = sdir / ".complete"
        if marker.exists():
            result.cached.add(name)
        else:
            sdir.mkdir(parents=True, exist_ok=True)
            inputs = {key: result.stage_dirs[p] / rel for p in parents for key, rel in STAGES[p].artifacts.items()}
            try:
                stage.body(sdir, cfg, psi, inputs, **params[name])
            except Exception as e:
                raise StageError(name, e) from e
            _atomic_write_bytes(marker, (digest + "\n").encode())
        result.artifacts.update({key: sdir / rel for key, rel in stage.artifacts.items()})
    return result


# ---------------------------------------------------------------------------
# map comparison


def load_map_csv(path) -> DbMap:
    x, y, values, column = read_grid_csv(path)
    if not (column.endswith("_db") or column.endswith("_dbr")):
        raise ConfigError(f"{path}: column {column!r} is not a dB quantity")
    return DbMap(x_m=x, y_m=y, values_db=values, column=column)


@dataclass(frozen=True)
class CompareReport(JsonCodec):
    """How two dB maps on the same grid relate: b relative to a."""

    correlation: float
    offset_db: float
    max_abs_residual_db: float
    rms_residual_db: float
    argmax_shift_steps: tuple[int, int]


def compare_maps(a: DbMap, b: DbMap) -> CompareReport:
    """Compare two maps point by point. Grids must be identical.

    offset_db is mean(b - a); residuals are what remains after removing it.
    A power map and the gain map it measures should correlate to 1 with the
    offset equal to the link budget terms the gain map leaves out.
    """
    ax, ay, adb = a.x_m, a.y_m, a.values_db
    bx, by, bdb = b.x_m, b.y_m, b.values_db
    if not (np.array_equal(ax, bx) and np.array_equal(ay, by)):
        raise ValueError("maps are on different grids")
    diff = bdb - adb
    offset = float(diff.mean())
    resid = diff - offset
    va = (adb - adb.mean()).ravel()
    vb = (bdb - bdb.mean()).ravel()
    denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
    if denom == 0.0:
        corr = 1.0 if float(np.max(np.abs(resid))) < 1e-12 else 0.0
    else:
        corr = float(va @ vb / denom)
    ia = np.unravel_index(int(np.argmax(adb)), adb.shape)
    ib = np.unravel_index(int(np.argmax(bdb)), bdb.shape)
    return CompareReport(
        correlation=corr,
        offset_db=offset,
        max_abs_residual_db=float(np.max(np.abs(resid))),
        rms_residual_db=float(np.sqrt(np.mean(resid**2))),
        argmax_shift_steps=(int(ib[1] - ia[1]), int(ib[0] - ia[0])),
    )
