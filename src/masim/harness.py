"""Scenario configs, on-disk campaigns, and the staged processing pipeline.

A campaign holds one row per grid position, row-major, in one .maiq record
file per row block (signals.row_blocks), raw samples only, plus a JSON
manifest: the full scenario config and the sha256 of every record file.
The scenario and a row's index derive the rest of its metadata (file,
position, noise seed, length and sample interval), so the manifest is
enough to re-derive everything the estimator needs without touching the
channel model that produced the data. A tone row is a time-domain capture.
A sounding row, like a SoundingCampaign's, is one position's h_freq values,
then its snapshots; one drawer, shared by build_sounding_campaign and
synthesize_campaign, draws them a row block at a time with the frames' noise law.

run_pipeline() chains sound -> estimate -> measure -> optimize -> export
through content-addressed stage directories. Each stage directory name
embeds a hash of the campaign format, the whole scenario, the whole path
state, the stage's own parameters and its upstream stages' hashes, so
re-running with the same inputs is a cache hit. Changing any scenario or
path-state field re-runs every requested stage, even one that does not
read that field; only a stage parameter (the optimize budget) is scoped to
its stage and the stages downstream of it. The STAGES table is the one
description of the stages: in run order, each entry names its upstream
stages (export follows every other requested stage), its artifacts
relative to the stage directory, and its body. The CLI's estimate and
optimize commands run the same code as those stages' bodies
(estimate_campaign, optimize_on_slide_track) and have no setting of their
own; the measure stage meters iter_tone_records' captures as they are
made, with the sweep_measure that `masim measure` runs.
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
    Position,
    gain_map,
    response_factors,
)
from .codec import ConfigError, JsonCodec, encode
from .estimator import (
    SoundingCampaign,
    compute_pas,
    compute_pds,
    estimate_psi,
    first_noise_bin,
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
    row_blocks,
    write_iq_record,
)

MAX_RECORD_SAMPLES = 2**24
"""Cap on a tone record and on an OFDM frame (paper: 336,600 samples); a sounding build draws only the first symbol's I QPSK symbols."""

MAX_SNAPSHOTS = 128
"""Most payload snapshots a sounding campaign keeps per position for the PAS, all from the first symbol."""

MAX_CAMPAIGN_BYTES = 2**31
"""Largest sounding campaign a ScenarioConfig may ask for: Q rows of I + min(MAX_SNAPSHOTS, I) complex128 statistics.

The paper's largest, 10,201 positions at 3168 subcarriers, is 538 MB.
"""

MANIFEST_FORMAT = "maiq-campaign/8"  # a new signals.row_blocks rule is a new record layout, and so a new format
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
        for name, count, what in (
            ("samples_per_measurement", self.samples_per_measurement, "per tone record"),
            ("numerology.frame_samples", self.numerology.frame_samples, "per frame (M symbols of I + CP samples)"),
        ):
            if count > MAX_RECORD_SAMPLES:
                raise ConfigError(f"{name} {count} exceeds the {MAX_RECORD_SAMPLES}-sample cap {what}")
        ny, nx = self.sounding_region.shape
        if ny * nx < 2:
            raise ConfigError(f"a {ny} x {nx} sounding_region has fewer than the 2 positions a sounding campaign needs")
        size = math.prod(_row_shape(self, "ofdm")) * 16
        if size > MAX_CAMPAIGN_BYTES:
            raise ConfigError(f"a {ny} x {nx} sounding_region holds {size} bytes of statistics, "
                              f"over the {MAX_CAMPAIGN_BYTES}-byte cap per campaign")
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool) or self.master_seed < 0:
            raise ConfigError(f"master_seed must be a non-negative integer: {self.master_seed!r}")

    def scenario_hash(self) -> str:
        return hashlib.sha256(_canonical_bytes(self.to_json_dict())).hexdigest()[:12]

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


def load_psi(path) -> PathStateInfo:
    return PathStateInfo.from_json_dict(_load_json(path))


def save_psi(path, psi: PathStateInfo) -> None:
    _atomic_write_json(path, psi.to_json_dict())


# ---------------------------------------------------------------------------
# campaign synthesis


def _check_carrier(cfg: ScenarioConfig, psi: PathStateInfo) -> None:
    """Refuse a path state observed at another carrier than the scenario's."""
    if abs(cfg.carrier_hz - psi.carrier_hz) > 1e-3:
        raise ConfigError(
            f"scenario carrier {cfg.carrier_hz} Hz and path state carrier {psi.carrier_hz} Hz disagree"
        )


def iter_tone_records(cfg: ScenarioConfig, psi: PathStateInfo) -> Iterator[np.ndarray]:
    """One noisy tone capture per point of cfg.region, row-major, made as the iterator is consumed.

    The carrier check runs at the call. Point q's noise is seeded by derive_seed(master_seed, "tone", q).
    """
    _check_carrier(cfg, psi)
    tone = gen_tone(cfg.tone_f0_hz, cfg.samples_per_measurement, 1.0 / cfg.bandwidth_hz)
    noise = NoiseSpec(cfg.noise_power, cfg.bandwidth_hz)
    return (add_noise(apply_channel(tone, psi, Position(x, y)), noise, derive_seed(cfg.master_seed, "tone", i))
            for i, (x, y) in enumerate(cfg.region.positions_array()))


def _snapshot_indices(numerology: OfdmNumerology) -> np.ndarray:
    """Payload offsets k_s of the first symbol's min(MAX_SNAPSHOTS, I) snapshots, evenly spread and distinct."""
    i_n = numerology.num_subcarriers
    return np.round(np.linspace(0, i_n - 1, min(MAX_SNAPSHOTS, i_n))).astype(int)


def _sounding_drawer(cfg: ScenarioConfig, psi: PathStateInfo) -> Callable[[slice, np.ndarray], None]:
    """build_sounding_campaign's law, checked and set up once: draw(rows, out) draws those rows' record block."""
    _check_carrier(cfg, psi)
    num = cfg.numerology
    if np.any(psi.delays_s > num.cp_duration_s):
        raise ConfigError("path delay exceeds the cyclic prefix; pick a longer CP")
    i_n, m_n = num.num_subcarriers, num.num_symbols
    tx0 = qpsk_symbols(i_n, 1, derive_seed(cfg.master_seed, "tx"))[:, 0]
    offsets = _snapshot_indices(num)
    scale = math.sqrt(cfg.noise_power / 2.0)
    freqs = np.arange(i_n) * num.subcarrier_spacing_hz
    steer_all, coeff = response_factors(psi, cfg.sounding_region.positions_array(), freqs)

    def draw(rows: slice, out: np.ndarray) -> None:
        h_freq, snaps = out[:, :i_n], out[:, i_n:]  # a record row holds its h_freq values, then its snapshots
        noise = np.empty((rows.stop - rows.start, len(offsets) + i_n), dtype=np.complex128)
        for q, row in enumerate(noise, rows.start):
            np.random.default_rng(derive_seed(cfg.master_seed, "sound", q)).standard_normal(out=row.view(np.float64))
        e, w = noise[:, :len(offsets)], noise[:, len(offsets):]
        e *= scale * math.sqrt(1.0 - 1.0 / m_n)
        w *= scale / math.sqrt(m_n)
        np.matmul(steer_all[rows], coeff, out=h_freq)
        h_freq += w
        np.multiply(h_freq, tx0, out=w)  # w is spent: it takes h_freq tx[:, 0]
        np.add(np.fft.ifft(w, axis=1, norm="forward")[:, offsets], e, out=snaps)  # h_freq T + e
    return draw


def build_sounding_campaign(cfg: ScenarioConfig, psi: PathStateInfo) -> SoundingCampaign:
    """Synthesize a sounding campaign in memory: its statistics directly, no time-domain frames.

    The campaign keeps per position only h_freq and n_snap = min(MAX_SNAPSHOTS,
    I) payload snapshots of the first symbol, and both are linear in the
    channel response H (Q, I) plus the frames' white noise of variance
    s2 = cfg.noise_power. So they are drawn with that noise's exact joint
    law, h_freq's noise white and the snapshots' conditioned on it
    (Gaussian conditioning; Kay, Fundamentals of Statistical Signal
    Processing vol. 1, ch. 10), as rows:

      h_freq    = H + w,                          w ~ CN(0, s2/M), white
      snapshots = h_freq T + sqrt(1 - 1/M) e,     e ~ CN(0, s2), white and independent of w

    T[i, s] = tx[i, 0] exp(j 2 pi i k_s / I) makes payload sample k_s of the
    first symbol from the subcarriers, so h_freq T is I times the batched
    inverse DFT of h_freq tx[:, 0] at the offsets k_s (_snapshot_indices).
    Since the QPSK symbols have |tx|^2 = 1/I, the snapshot noise's
    cross-covariance with h_freq's over s2 is conj(T) / M, so its mean
    given w is w T and its covariance given w is s2 (1 - T^H T / M). The
    offsets k_s are distinct, so T^H T is the identity and that covariance
    is white. tx[:, 0], the first symbol of qpsk_symbols(I, M, derive_seed(
    master_seed, "tx")), is a prefix of its draws: only it is drawn.
    Position q draws e, then w, from derive_seed(master_seed, "sound", q),
    so its statistics do not depend on the sweep's size or order.
    The writer draws the same row blocks, so the rows are its record files' bytes.
    """
    draw = _sounding_drawer(cfg, psi)
    rows = np.empty(_row_shape(cfg, "ofdm"), dtype=np.complex128)
    for block in row_blocks(*rows.shape):
        draw(block, rows[block])
    return SoundingCampaign(cfg.sounding_region, cfg.numerology, cfg.carrier_hz, rows)


def _row_shape(cfg: ScenarioConfig, mode: str) -> tuple[int, int]:
    """Rows and values a row of a campaign of cfg: a capture per tone point, or I + n_snap statistics per position."""
    if mode == "tone":
        return cfg.region.num_points, cfg.samples_per_measurement
    if mode == "ofdm":
        return cfg.sounding_region.num_points, cfg.numerology.num_subcarriers + len(_snapshot_indices(cfg.numerology))
    raise ConfigError(f"campaign mode must be 'tone' or 'ofdm': {mode!r}")


def _block_file(dir_path, b: int) -> Path:
    return Path(dir_path) / f"block_{b:04d}.maiq"


@dataclass(frozen=True)
class CampaignManifest(JsonCodec):
    """Index of an on-disk campaign: its mode, its scenario, and the sha256 of every record file.

    Row q sits at point q of the region, row-major; record file b holds row
    block b's rows, and sha256[b] is the hex digest of the whole file.
    """

    mode: str
    scenario: ScenarioConfig
    sha256: tuple[str, ...]

    def __post_init__(self):
        q_n, n = _row_shape(self.scenario, self.mode)
        if len(self.sha256) != len(row_blocks(q_n, n)):
            raise ConfigError(f"manifest holds {len(self.sha256)} record digests, the {q_n} points of its region "
                              f"make {len(row_blocks(q_n, n))} row blocks")

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
    """Write a full campaign (record files plus manifest) under out_dir, holding one row block at a time.

    A tone campaign's rows are time-domain captures; an ofdm campaign's are
    build_sounding_campaign(cfg, psi)'s, drawn straight into each block's
    record file. The manifest lands last, via rename, so a manifest whose
    digests hold describes a whole campaign. No input check follows mkdir.
    """
    q_n, n = _row_shape(cfg, mode)
    if mode == "tone":
        captures = iter_tone_records(cfg, psi)
    else:
        draw = _sounding_drawer(cfg, psi)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    digests = []
    for b, block in enumerate(row_blocks(q_n, n)):
        payload = np.empty((block.stop - block.start, n), dtype="<c16")  # the digest covers the file's bytes
        if mode == "ofdm":
            draw(block, payload)
        else:
            for row, capture in zip(payload, captures):
                row[:] = capture
        write_iq_record(_block_file(out, b), payload)
        digests.append(hashlib.sha256(payload).hexdigest())
    CampaignManifest(mode=mode, scenario=cfg, sha256=tuple(digests)).save(out)
    return out


def _read_records(dir_path, manifest: CampaignManifest) -> Iterator[np.ndarray]:
    """Yield the campaign's rows, row-major, one record file at a time, each checked against its digest."""
    q_n, n = _row_shape(manifest.scenario, manifest.mode)
    for b, (rows, digest) in enumerate(zip(row_blocks(q_n, n), manifest.sha256)):
        path = _block_file(dir_path, b)
        if not path.exists():
            raise ConfigError(f"manifest lists {path.name} but the file is missing")
        samples = read_iq_record(path, (rows.stop - rows.start) * n).reshape(-1, n)
        if hashlib.sha256(samples).hexdigest() != digest:  # the file is exactly the <c16 samples
            raise ConfigError(f"{path.name}: sha256 disagrees with the manifest")
        yield from samples[:-1]
        last, samples = samples[-1].copy(), None  # so a caller keeping one row holds no block during the next read
        yield last


def load_campaign(dir_path) -> tuple[CampaignManifest, list[np.ndarray]]:
    """Load a campaign directory's rows, row-major over its region, checking every record file against the manifest."""
    manifest = CampaignManifest.load(dir_path)
    return manifest, list(_read_records(dir_path, manifest))


def load_sounding_campaign(dir_path) -> SoundingCampaign:
    """Stream an on-disk ofdm campaign's rows into a SoundingCampaign, one record file at a time.

    The rows are copied whole, so the campaign equals the build_sounding_campaign one that was written.
    """
    manifest = CampaignManifest.load(dir_path)
    if manifest.mode != "ofdm":
        raise ConfigError(f"expected an ofdm campaign, found mode {manifest.mode!r}")
    cfg = manifest.scenario
    rows = np.empty(_row_shape(cfg, "ofdm"), dtype=np.complex128)
    for q, row in enumerate(_read_records(dir_path, manifest)):
        rows[q] = row
    return SoundingCampaign(manifest.region, cfg.numerology, cfg.carrier_hz, rows)


def measure_campaign(dir_path) -> DbMap:
    """Meter every capture of an on-disk tone campaign with the single-bin DFT, one record file at a time.

    Each capture reads the bin of the manifest's tone_f0_hz on the meter's
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
) -> MoveResult:
    """Two-stage placement over cfg.region on a simulated slide track.

    The track measures the true channel psi with the scenario's tone and
    noise, seeded from its master seed; est drives the coarse stage. The
    refinement starts at the coarser grid step.
    """
    _check_carrier(cfg, psi)
    _check_carrier(cfg, est)
    track = SimulatedSlideTrack(
        psi=psi,
        region=cfg.region,
        noise=NoiseSpec(cfg.noise_power, cfg.bandwidth_hz),
        f0_hz=cfg.tone_f0_hz,
        num_samples=cfg.samples_per_measurement,
        master_seed=derive_seed(cfg.master_seed, "mover"),
    )
    step = max(cfg.region.x_step_m, cfg.region.y_step_m)
    return optimize(est, cfg.region, track, refine_step_m=step, budget=budget)


# ---------------------------------------------------------------------------
# pipeline


def estimate_campaign(campaign_dir, est_path, pas_path=None, pds_path=None) -> PathStateInfo:
    """Estimate path state from an on-disk sounding campaign and write it to est_path with save_psi.

    The angular scan runs on the fixed estimator.SCAN_ANGLES_DEG grid.
    pas_path and pds_path, when given, also receive the angular and delay
    spectra as CSV. Both `masim estimate` and the estimate stage run this.
    """
    campaign = load_sounding_campaign(campaign_dir)
    pas = compute_pas(campaign)
    est = estimate_psi(campaign, pas=pas)
    save_psi(est_path, est)
    if pas_path is not None:
        pas.to_csv(pas_path)
    if pds_path is not None:
        compute_pds(campaign).to_csv(pds_path)
    return est


def _sound(sdir, cfg, psi, inputs):
    synthesize_campaign(cfg, psi, "ofdm", sdir / "campaign")


def _estimate(sdir, cfg, psi, inputs):
    estimate_campaign(inputs["sounding_campaign"], sdir / "estimated_psi.json", sdir / "pas.csv", sdir / "pds.csv")


def _measure(sdir, cfg, psi, inputs):
    pm = sweep_measure(cfg.region, iter_tone_records(cfg, psi), 1.0 / cfg.bandwidth_hz, cfg.tone_f0_hz)
    pm.to_csv(sdir / "power_map.csv")


def _optimize(sdir, cfg, psi, inputs, budget):
    est = load_psi(inputs["estimated_psi"])
    res = optimize_on_slide_track(cfg, psi, est, budget=budget)
    _atomic_write_json(sdir / "move_result.json", res.to_json_dict())


def _export(sdir, cfg, psi, inputs):
    gain_map(psi, cfg.region).to_csv(sdir / "gain_map.csv")
    for src in inputs.values():
        if src.is_file():
            shutil.copyfile(src, sdir / src.name)


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
    "measure": Stage((), {"power_map": "power_map.csv"}, _measure),
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
    _check_carrier(cfg, psi)
    # upstream stages come earlier in STAGES, so one backward pass closes the set
    for name in reversed(STAGES):
        if name in requested:
            requested.update(_upstream(name, requested))
    if "estimate" in requested:
        first_noise_bin(cfg.numerology)  # a CP that leaves the estimate no noise floor fails before any stage runs

    params = {"optimize": {"budget": optimize_budget}}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(stage_dirs={}, artifacts={}, cached=set())
    hashes = {}
    for name, stage in STAGES.items():
        if name not in requested:
            continue
        stage_params = params.get(name, {})
        parents = _upstream(name, requested)
        payload = {
            "stage": name,
            "format": MANIFEST_FORMAT,
            "scenario": cfg.to_json_dict(),
            "psi": psi.to_json_dict(),
            "params": stage_params,
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
                stage.body(sdir, cfg, psi, inputs, **stage_params)
            except Exception as e:
                raise StageError(name, e) from e
            _atomic_write_bytes(marker, (digest + "\n").encode())
        result.artifacts.update({key: sdir / rel for key, rel in stage.artifacts.items()})
    return result


# ---------------------------------------------------------------------------
# map comparison


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
