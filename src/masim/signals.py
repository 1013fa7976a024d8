"""Transmit waveforms, the tone channel, noise and IQ record files.

The power meter probes with a single complex tone (gen_tone), passed
through the narrowband channel by apply_channel. The sounder's
cyclic-prefixed OFDM frames carry a seeded QPSK subcarrier grid
(qpsk_symbols); harness.build_sounding_campaign draws the statistics the
estimator reads from those frames without synthesizing them. Synthetic
IQ samples are stored as raw little-endian complex128 record files, one
per row block (row_blocks) of a campaign's positions; its manifest holds
everything else, so a campaign can be replayed deterministically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import PathStateInfo, Position, channel_response
from .codec import JsonCodec

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
        cp = self.cp_duration_s * self.occupied_bandwidth_hz
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
    def cp_samples(self) -> int:
        return int(round(self.cp_duration_s * self.occupied_bandwidth_hz))

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


def row_blocks(num_rows: int, row_values: int) -> list[slice]:
    """The fewest equal row blocks of [0, num_rows) of at most 2**20 values (16 MiB) each, none with a single row.

    Rows of over 2**20 / 3 values make blocks of two rows, and one of three for an
    odd count: numpy multiplies a single row by another kernel than a block, so no
    row's values depend on the blocking. A block is also a campaign record file,
    so a new rule here is a new layout and needs a new harness.MANIFEST_FORMAT.
    """
    n = max(1, min(-(-num_rows // max(2, (1 << 20) // row_values)), num_rows // 2))
    return [slice(k * num_rows // n, (k + 1) * num_rows // n) for k in range(n)]


def write_iq_record(path, samples: np.ndarray) -> None:
    """Write samples as a record file: N little-endian complex128 values and nothing else."""
    payload = np.ascontiguousarray(samples, dtype="<c16")  # written from its buffer, not copied
    with open(path, "wb") as fh:
        fh.write(payload)


def read_iq_record(path, num_samples: int) -> np.ndarray:
    """Read the num_samples values of a record file, refusing a file of any other size."""
    with open(path, "rb") as fh:
        # check the size before the read, so a wrong count never sizes an allocation
        size = os.fstat(fh.fileno()).st_size
        if size != 16 * num_samples:
            what = "truncated" if size < 16 * num_samples else "oversized"
            raise ValueError(f"{what} IQ record {path}: {size} bytes, not the "
                             f"{16 * num_samples} of {num_samples} samples")
        samples = np.empty(num_samples, dtype="<c16")  # read in place: the payload is held once
        if fh.readinto(samples) != size:
            raise ValueError(f"short read of IQ record {path}")
    return samples


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
    """Seeded QPSK subcarrier grid b[i, m], E|b|^2 = 1/I (constant modulus), C-contiguous (I, M).

    The seed's bit pairs are drawn symbol by symbol, (M, I, 2): the pair (r, s)
    of [m, i] picks entry 2 r + s of the 4-symbol alphabet ((2 r - 1) + j (2 s - 1)) / sqrt(2 I).
    So the first m symbols are a prefix of the seeded draws, the same for any M >= m.
    """
    bits = np.random.default_rng(seed).integers(0, 2, size=(num_symbols, num_subcarriers, 2))
    codes = (bits[..., 0] << 1 | bits[..., 1]).T.copy()  # (I, M), C order
    re, im = 2.0 * np.array([0, 0, 1, 1]) - 1.0, 2.0 * np.array([0, 1, 0, 1]) - 1.0
    return ((re + 1j * im) / np.sqrt(2.0 * num_subcarriers))[codes]


def apply_channel(tx: np.ndarray, psi: PathStateInfo, position: Position) -> np.ndarray:
    """Narrowband flat fading at one position: y = h(r) * tx.

    Path delays act only through the carrier phase inside h(r). OFDM
    sounding applies the per-subcarrier response in harness.build_sounding_campaign.
    """
    h = channel_response(psi, position.as_array())[0, 0]
    return h * np.asarray(tx, dtype=np.complex128)


def add_noise(samples: np.ndarray, spec: NoiseSpec, seed: int | np.random.Generator) -> np.ndarray:
    """Add circularly symmetric Gaussian noise of variance spec.power; seed is anything np.random.default_rng takes."""
    if spec.power == 0.0:
        return np.array(samples, dtype=np.complex128, copy=True)
    n = len(samples)
    v = np.random.default_rng(seed).standard_normal(2 * n)  # the real parts' n draws, then the imaginary parts'
    v *= math.sqrt(spec.power / 2.0)  # scaled as reals: no complex-by-real multiply pass
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = v[:n], v[n:]
    out += samples
    return out
