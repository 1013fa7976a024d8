"""Transmit waveforms, the tone channel, noise and IQ record files.

The power meter probes with a single complex tone (gen_tone), passed
through the narrowband channel by apply_channel. The sounder's
cyclic-prefixed OFDM frames carry a seeded QPSK subcarrier grid
(qpsk_symbols) and are synthesized in harness._sounding_frames. Synthetic
IQ captures are stored as little-endian binary records so a campaign (one
record per grid position) can be replayed deterministically.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .channel import PathStateInfo, Position, channel_response
from .codec import JsonCodec

MAIQ_MAGIC = b"MAIQ"
MAIQ_VERSION = 1
# magic, version u32, x f64, y f64, T f64, N u64, seed u64
_HEADER = struct.Struct("<4sIdddQQ")


def derive_seed(master_seed: int, *labels) -> int:
    """Stable uint64 stream seed from a master seed and any hashable labels.

    Built on numpy SeedSequence so per-position streams are independent and
    the sweep order never matters.
    """
    entropy = [int(master_seed)]
    for lab in labels:
        if isinstance(lab, str):
            entropy.extend(lab.encode())
        else:
            entropy.append(int(lab))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoiseSpec:
    """Circularly symmetric complex Gaussian noise.

    power is the per-sample variance sigma^2; bandwidth_hz is the sample rate
    the noise applies at (band-limited noise sampled at its own bandwidth is
    white sample to sample).
    """

    power: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.power < 0.0:
            raise ValueError(f"noise power must be >= 0: {self.power}")
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"noise bandwidth must be > 0: {self.bandwidth_hz}")


@dataclass(frozen=True)
class OfdmNumerology(JsonCodec):
    """OFDM sounding numerology: I subcarriers at spacing df, M symbols, CP length Tc.

    One symbol lasts To = 1/df + Tc. Time-domain synthesis runs at the
    occupied bandwidth I*df, so the useful part of a symbol is exactly I
    samples and the delay resolution of the sounder is 1/(I*df).
    """

    subcarrier_spacing_hz: float
    num_subcarriers: int
    num_symbols: int
    cp_duration_s: float

    def __post_init__(self):
        if self.subcarrier_spacing_hz <= 0.0:
            raise ValueError("subcarrier_spacing_hz must be > 0")
        if self.num_subcarriers < 1 or self.num_symbols < 1:
            raise ValueError("num_subcarriers and num_symbols must be >= 1")
        if self.cp_duration_s < 0.0:
            raise ValueError("cp_duration_s must be >= 0")
        cp = self.cp_duration_s * self.sample_rate_hz
        if abs(cp - round(cp)) > 1e-6:
            raise ValueError(f"cp_duration_s must be an integer number of samples at I*df, got {cp:.6f}")

    @staticmethod
    def default() -> "OfdmNumerology":
        # 120 kHz spacing, 3168 subcarriers (380.16 MHz occupied), 100 symbols
        df = 120e3
        return OfdmNumerology(
            subcarrier_spacing_hz=df,
            num_subcarriers=3168,
            num_symbols=100,
            cp_duration_s=1.0 / (16.0 * df),
        )

    @property
    def occupied_bandwidth_hz(self) -> float:
        return self.num_subcarriers * self.subcarrier_spacing_hz

    @property
    def sample_rate_hz(self) -> float:
        return self.occupied_bandwidth_hz

    @property
    def sample_interval_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def cp_samples(self) -> int:
        return int(round(self.cp_duration_s * self.sample_rate_hz))

    @property
    def samples_per_symbol(self) -> int:
        return self.num_subcarriers + self.cp_samples

    @property
    def frame_samples(self) -> int:
        return self.num_symbols * self.samples_per_symbol

    @property
    def delay_step_s(self) -> float:
        """Delay-domain bin width of the sounder, 1/(I*df)."""
        return 1.0 / self.occupied_bandwidth_hz


@dataclass
class IQRecord:
    """One synthetic IQ capture at a fixed antenna position."""

    position: Position
    samples: np.ndarray
    sample_interval_s: float
    seed: int

    @property
    def num_samples(self) -> int:
        return len(self.samples)


def write_iq_record(path, record: IQRecord) -> None:
    header = _HEADER.pack(
        MAIQ_MAGIC,
        MAIQ_VERSION,
        record.position.x_m,
        record.position.y_m,
        record.sample_interval_s,
        record.num_samples,
        record.seed,
    )
    payload = np.ascontiguousarray(record.samples, dtype="<c16")  # written from its buffer, not copied
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_iq_record(path) -> IQRecord:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated IQ record header: {path}")
        magic, version, x, y, t, n, seed = _HEADER.unpack(raw)
        if magic != MAIQ_MAGIC:
            raise ValueError(f"bad IQ record magic {magic!r}: {path}")
        if version != MAIQ_VERSION:
            raise ValueError(f"unsupported IQ record version {version}: {path}")
        # check the declared count against the file before trusting it with a read
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != 16 * n:
            what = "truncated" if size < 16 * n else "oversized"
            raise ValueError(f"{what} IQ record payload: header declares {n} samples, "
                             f"file holds {size} bytes: {path}")
        samples = np.empty(n, dtype="<c16")  # read in place: the payload is held once
        if fh.readinto(samples) != size:
            raise ValueError(f"short read of IQ record payload: {path}")
    return IQRecord(position=Position(x, y), samples=samples, sample_interval_s=t, seed=seed)


def gen_tone(f0_hz: float, num_samples: int, sample_interval_s: float) -> np.ndarray:
    """Unit-amplitude complex tone s[n] = exp(j*2*pi*f0*n*T).

    f0 must lie strictly inside the sampled band (|f0| < 1/(2T)).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if sample_interval_s <= 0.0:
        raise ValueError("sample_interval_s must be > 0")
    if abs(f0_hz) >= 0.5 / sample_interval_s:
        raise ValueError(f"tone at {f0_hz} Hz aliases at sample interval {sample_interval_s}")
    n = np.arange(num_samples)
    return np.exp(2j * np.pi * f0_hz * sample_interval_s * n)


def qpsk_symbols(num_subcarriers: int, num_symbols: int, seed: int) -> np.ndarray:
    """Seeded QPSK subcarrier grid b[i, m], E|b|^2 = 1/I (constant modulus)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_subcarriers, num_symbols, 2))
    re = 2.0 * bits[..., 0] - 1.0
    im = 2.0 * bits[..., 1] - 1.0
    return (re + 1j * im) / np.sqrt(2.0 * num_subcarriers)


def apply_channel(tx: np.ndarray, psi: PathStateInfo, position: Position) -> np.ndarray:
    """Narrowband flat fading at one position: y = h(r) * tx.

    Path delays act only through the carrier phase inside h(r). OFDM
    sounding applies the per-subcarrier response in harness._sounding_frames.
    """
    h = channel_response(psi, position.as_array())[0, 0]
    return h * np.asarray(tx, dtype=np.complex128)


def add_noise(samples: np.ndarray, spec: NoiseSpec, seed: int) -> np.ndarray:
    """Add seeded circularly symmetric Gaussian noise of variance spec.power."""
    if spec.power == 0.0:
        return np.array(samples, dtype=np.complex128, copy=True)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(spec.power / 2.0)
    n = rng.standard_normal(len(samples)) + 1j * rng.standard_normal(len(samples))
    return np.asarray(samples, dtype=np.complex128) + scale * n
